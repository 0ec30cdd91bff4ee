package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Readers of Linux's /proc: a process's memory and CPU time, and the
// machine's.

// peakMB reads a process's peak resident set (VmHWM) in MiB.
func peakMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// cpuTicks returns the user and system CPU time a process has used, in
// clock ticks, or -1 when it cannot be read.
func cpuTicks(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return -1
	}
	// The fields after the parenthesised command name start at the state
	// (field 3); utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return -1
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return -1
	}
	return utime + stime
}

// cpuStat is the machine's CPU time so far, all of it and the part the host
// took away from a virtual machine (steal), in clock ticks.
type cpuStat struct{ total, steal int64 }

// readCPUStat reads the machine's CPU time from /proc/stat; it is zero when
// the file cannot be read.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user and nice.
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealSince is the share of the machine's CPU time since a that the host
// took away; 0 when no time was counted.
func (b cpuStat) stealSince(a cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// resetPeak restarts a process's VmHWM from its current resident set, so
// the next peakMB covers only what happens in between.
func resetPeak(pid int) error {
	return os.WriteFile("/proc/"+strconv.Itoa(pid)+"/clear_refs", []byte("5"), 0)
}
