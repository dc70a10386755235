package main

// Example runs the churn scenario; its output is pinned so a changed
// departure or recovery shows here.
func Example() {
	main()
	// Output:
	// initial ring consistent at t=56 (6181 messages)
	//   node 2168696190310795206 failed
	//   node 4409580151121052361 failed
	//   node 6892487422858870876 failed
	//   node 9082579350789565885 failed
	//   node 11696061336705834289 failed
	//   node 16482995195507078829 failed
	// churn: 6 nodes down; survivors re-linearize ...
	// ring consistent again at t=80 — no flood, no restart
	// total messages including recovery: 9630
}
