package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in results.json: fsync on tmpfs and on a disk are
// different programs, and so are two and sixteen cores.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Dir        string `json:"dir"`
	Filesystem string `json:"filesystem"`
}

func readEnvironment(dir string) environment {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     strings.TrimSpace(string(kernel)),
		Dir:        dir,
		Filesystem: filesystemOf(dir),
	}
}

// filesystemOf names the filesystem type mounted under dir, from
// /proc/self/mountinfo (longest mount point that prefixes dir); "unknown"
// where that file does not exist.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fstype := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// 36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw
		left, right, ok := strings.Cut(sc.Text(), " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fstype = mp, rf[0]
		}
	}
	return fstype
}

// procField reads one "key: value" line of a /proc/self file as an integer;
// 0 where the file or key is missing.
func procField(file, key string) int64 {
	data, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// procWchar is the bytes this process has passed to write calls.
func procWchar() int64 { return procField("io", "wchar") }
