//go:build unix

package main

import "syscall"

// flushDisks asks the kernel to write back every dirty page now, so the
// writeback of files an earlier run left behind does not compete with the
// measured phase for the disk and the CPU.
func flushDisks() { syscall.Sync() }
