package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"libseal/internal/vfs"
)

// hostInfo is the context a run records so that drift between runs shows:
// CPU count, scheduler width, hypervisor steal, the speed of a fixed
// reference computation, and the file system the audit logs went to.
type hostInfo struct {
	nproc, maxprocs int
	refMS           float64
	fs              string
	steal           float64

	stat0 cpuStat
}

func readHost(dir string) *hostInfo {
	h := &hostInfo{nproc: runtime.NumCPU(), maxprocs: runtime.GOMAXPROCS(0), fs: fsType(dir)}
	h.stat0, _ = readCPUStat()
	h.refMS = refCompute()
	return h
}

// finish computes the steal share since readHost.
func (h *hostInfo) finish() {
	s1, err := readCPUStat()
	if err != nil {
		return
	}
	total := s1.total - h.stat0.total
	if total > 0 {
		h.steal = float64(s1.steal-h.stat0.steal) / float64(total)
	}
}

// refCompute times a fixed computation: SHA-256 over 8 MiB. On a host
// whose CPU share drifts, this drifts with it.
func refCompute() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	var sum [32]byte
	for i := 0; i < 8; i++ {
		buf[0] = sum[0]
		sum = sha256.Sum256(buf)
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the aggregate "cpu" line of /proc/stat.
func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuStat{}, err
			}
			if i < 8 { // user..steal; guest time is already in user
				st.total += v
			}
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, fmt.Errorf("/proc/stat: no cpu line")
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// pageCacheFS is the real file system with fsync elided: writes reach the
// kernel's page cache exactly as on tmpfs, where fsync returns at once.
// The benchmark keeps its logs inside its own directory, which sits on
// whatever disk holds the checkout; on a shared virtual disk, fsync there
// measured p50 170 µs and p99 up to 3.7 ms, which swamped every other
// effect. The program still makes and counts every fsync
// (audit.fsyncs_per_entry), only the wait is gone.
type pageCacheFS struct{ vfs.OS }

func (fs pageCacheFS) Create(name string) (vfs.File, error) {
	f, err := fs.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{f}, nil
}

func (fs pageCacheFS) Append(name string) (vfs.File, error) {
	f, err := fs.OS.Append(name)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{f}, nil
}

type pageCacheFile struct{ vfs.File }

func (pageCacheFile) Sync() error { return nil }
