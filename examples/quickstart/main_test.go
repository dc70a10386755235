package main

// Example runs the quickstart; its output is pinned so a changed bootstrap
// or route shows here.
func Example() {
	main()
	// Output:
	// bootstrapping the virtual ring with linearization ...
	// globally consistent at t=48 after 4736 messages (zero floods)
	//
	// route   178546863854662590 -> 17451690672279655187 delivered=true hops=2 stretch=1.00
	// route  9361772812474412957 -> 845543175415885319   delivered=true hops=5 stretch=1.67
	// route  1562524454034856777 -> 6095792381061075102  delivered=true hops=1 stretch=1.00
}
