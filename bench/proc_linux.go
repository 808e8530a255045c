package main

import (
	"os/exec"
	"syscall"
	"time"
	"unsafe"
)

// setDeathSignal has the kernel SIGKILL the child if this process dies
// without running its own cleanup (a SIGKILL of the harness, a panic in a
// foreign thread), so no exit path can orphan a server.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// threadCPU is the CPU time the calling OS thread has used, from
// CLOCK_THREAD_CPUTIME_ID: nanosecond-exact, and blind to how long the thread
// waited for a core.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
