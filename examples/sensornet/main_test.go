package main

// Example runs the sensor field; its output is pinned so a changed bootstrap,
// cache bound or route shows here.
func Example() {
	main()
	// Output:
	// sensor field: 64 radios, unit-disk links, bounded caches
	// ring consistent at t=72, 9471 messages
	// largest route cache: 13 entries (bound: 128 interval slots)
	//
	// sink polled 63/63 sensors, mean route length 4.4 hops
}
