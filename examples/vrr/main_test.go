package main

// Example runs the VRR walk-through; its output is pinned so a changed
// bootstrap, path table or route shows here.
func Example() {
	main()
	// Output:
	// bootstrapping linearized VRR (path state, hello beacons, no representative) ...
	// virtual ring consistent at t=40 after 3998 frames
	// path-table entries per node: mean=48.6 p90=68 max=109
	// route  2445169778689517422 -> 16593832542286064398 delivered in 1 physical hops
	// route 14838063129630673154 -> 264774500478141903   delivered in 5 physical hops
	// route  3286980993456128099 -> 11271294963051476757 delivered in 3 physical hops
}
