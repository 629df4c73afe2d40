package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gdmp/internal/obs"
)

// header is the environment every result carries (ROADMAP's common BENCH
// header), so a number is never read without the box it came from.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	ScratchFS  string `json:"scratch_fs"`
	Transport  string `json:"transport"`
}

func readHeader(scratchBase string) header {
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readString("/proc/sys/kernel/osrelease")),
		ScratchFS:  fsName(scratchBase),
		Transport:  "loopback TCP, not a WAN link",
	}
}

func (h header) print() {
	fmt.Printf("# commit: %s\n# go: %s  GOMAXPROCS: %d  nproc: %d\n# cpu: %s\n# kernel: %s\n# scratch fs: %s\n# transport: %s\n",
		h.Commit, h.GoVersion, h.GOMAXPROCS, h.NProc, h.CPU, h.Kernel, h.ScratchFS, h.Transport)
	if h.ScratchFS == "tmpfs" {
		fmt.Println("# WARNING: scratch is on tmpfs, so fsync is free; journal and sidecar numbers are not comparable to a disk's")
	}
}

func readString(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// procField returns the first "key : value" line's value of a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head := strings.TrimSpace(readString(filepath.Join(".git", "HEAD")))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = strings.TrimSpace(readString(filepath.Join(".git", ref)))
	}
	if len(head) < 12 {
		return "unknown"
	}
	return head[:12]
}

func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// cpuSeconds is user+system CPU time consumed by the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fillRandom fills buf with a splitmix64 stream: deterministic per seed
// and an order of magnitude faster than math/rand's byte-at-a-time Read.
func fillRandom(buf []byte, seed uint64) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := next()
		buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		buf[i+4], buf[i+5], buf[i+6], buf[i+7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	}
	for v := next(); i < len(buf); i++ {
		buf[i] = byte(v)
		v >>= 8
	}
}

// stampFile makes buf the content of file number n: the shared random
// base with a per-file word written every 4 KiB, so every file (and every
// parity block of it) differs without regenerating the whole buffer.
func stampFile(buf []byte, seed uint64, n int) {
	var w [8]byte
	fillRandom(w[:], seed^(uint64(n)+1)*0x9e3779b97f4a7c15)
	for off := 0; off < len(buf); off += 4096 {
		copy(buf[off:], w[:])
	}
}

// dialCounter is the SiteOptions.DialFunc wrapper that counts, from
// outside the program, every connection the sites open and the bytes that
// cross them.
type dialCounter struct {
	dials, read, written atomic.Int64
}

func (c *dialCounter) dial(network, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, 30*time.Second)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c *dialCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.written.Add(int64(n))
	return n, err
}

// counterSum adds up every child of a counter family in a registry by
// reading its text exposition, so the bench needs no accessor the
// program does not already export.
func counterSum(r *obs.Registry, name string) int64 {
	var sum int64
	for _, line := range strings.Split(r.Text(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			v, _ := strconv.ParseFloat(rest[i+1:], 64)
			sum += int64(v)
		}
	}
	return sum
}
