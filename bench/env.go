package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env.go reads what the machine was doing while a round ran. None of it is
// corrected for: it is recorded next to the round so that an unresolved
// comparison can be explained.

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var ct cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		ct.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			ct.steal = v
		}
	}
	return ct
}

func stealRatio(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// timeWaitSockets counts TCP sockets in TIME_WAIT (state 06), the residue of
// one connection per session.
func timeWaitSockets() int {
	n := 0
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 3 && f[3] == "06" {
				n++
			}
		}
	}
	return n
}

// ephemeralPorts is the size of the local port range connects draw from.
func ephemeralPorts() int {
	data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 28232 // Linux default 32768..60999
	}
	f := strings.Fields(string(data))
	if len(f) != 2 {
		return 28232
	}
	lo, _ := strconv.Atoi(f[0])
	hi, _ := strconv.Atoi(f[1])
	if hi <= lo {
		return 28232
	}
	return hi - lo + 1
}

// processCPU is user+system CPU time of this process: both ends of every
// session run here, so it is the whole system's CPU bill.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var calibSink uint64

// calibrate times a fixed xorshift loop: the same instructions every round,
// so a round in which it ran slow was slow because of the machine.
func calibrate() time.Duration {
	x := uint64(0x9E3779B97F4A7C15)
	t0 := time.Now()
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	calibSink += x
	return d
}

// roundEnv is one round's noise record.
type roundEnv struct {
	StealRatio float64 `json:"steal_ratio"`
	TimeWait   int     `json:"timewait_sockets"`
	CalibMs    float64 `json:"calib_ms"`
	SettleMs   float64 `json:"settle_ms"`
}

// settle runs between rounds: collect the previous round's garbage, let
// server goroutines finish their closing reads, and if TIME_WAIT sockets
// crowd the ephemeral range wait longer rather than measure through connect
// retries.
func settle(warn func(string, ...any)) (settled time.Duration, timeWait int) {
	t0 := time.Now()
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	timeWait = timeWaitSockets()
	if limit := ephemeralPorts() / 2; timeWait > limit {
		warn("%d TIME_WAIT sockets exceed half the ephemeral port range (%d): settling 500ms longer", timeWait, limit)
		time.Sleep(500 * time.Millisecond)
		timeWait = timeWaitSockets()
	}
	return time.Since(t0), timeWait
}
