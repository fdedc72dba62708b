package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID: CPU time consumed by
// every thread of the process. The kernel leaves out time the
// hypervisor gave to other guests (steal), so on a shared host it
// counts only the process's own work.
const clockProcessCPUTime = 2

// cpuTime returns the CPU time the process has used so far, across all
// threads: workers, garbage collector and runtime.
func cpuTime() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// processCPU is cpuTime for the timed regions, after run has read the
// clock once successfully.
func processCPU() time.Duration {
	d, err := cpuTime()
	if err != nil {
		panic(err)
	}
	return d
}
