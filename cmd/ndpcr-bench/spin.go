package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// schedIdle is SCHED_IDLE of <linux/sched.h>, which package syscall does
// not export: a task of this class runs only while its CPU has nothing else
// to do, and anything that wakes up there preempts it at once.
const schedIdle = 5

// keepCPUsAwake starts one child process per CPU that spins in the idle
// scheduling class, pinned to its CPU, and returns the function that kills
// them and waits until they are gone. The spinners take nothing from the
// stack under test; what they do is keep the CPUs from halting. On a virtual
// machine a halted vCPU is woken by the hypervisor, and how long that takes
// depends on the host's other tenants. On the reference host that slowed
// the workloads that hand work from thread to thread or sleep
// (svc_async_small, paced_small_blocks) by 10-30 % for minutes at a time;
// README.md has runs of one binary alternating with and without spinners.
//
// A spinner that cannot start, or cannot enter the idle class, is not there;
// the run goes on either way.
func keepCPUsAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var spinners []*exec.Cmd
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, "-spin", strconv.Itoa(cpu))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		if cmd.Start() == nil {
			spinners = append(spinners, cmd)
		}
	}
	return func() {
		for _, cmd := range spinners {
			cmd.Process.Kill() // fails only if it has exited already
			cmd.Wait()         // "signal: killed" is the expected outcome
		}
	}
}

var spinSink uint64

// spin is the child: it moves its thread into the idle class, pins it and
// burns whatever CPU time nobody else wants until it is killed. It also
// leaves on its own once its parent is gone, so a benchmark that dies
// without stopping it leaves nothing behind.
func spin(cpu int) {
	runtime.LockOSThread()
	var priority int32 // sched_param: must be 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		os.Exit(1) // never spin at normal priority
	}
	var mask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t
	if cpu < 64*len(mask) {
		mask[cpu/64] = 1 << (cpu % 64)
		// Unpinned is good enough when this CPU is not ours to run on.
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for i := 0; i < 1<<22; i++ {
			spinSink++
		}
	}
}
