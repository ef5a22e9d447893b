//go:build !unix

package main

// flushDisks is a no-op where the kernel offers no sync call.
func flushDisks() {}
