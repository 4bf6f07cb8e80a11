package main

import "testing"

// TestRuns runs the example to completion: every failure path in main
// exits the process non-zero, which fails the test.
func TestRuns(t *testing.T) {
	main()
}
