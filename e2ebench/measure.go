package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// the sample to support it (the choosing-metrics rule).
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - min(max(rank, 1), n)
}

// supportedPercentile returns the highest of the candidate percentiles that
// has at least minBeyond samples beyond it in a sample of n, and false when
// none has.
func supportedPercentile(n int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if beyond(n, p) >= minBeyond && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencies collects per-operation latencies from concurrent clients.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// sorted returns a sorted copy of the sample.
func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]float64(nil), l.ms...)
	sort.Float64s(out)
	return out
}

// errRetryCap marks an operation that kept conflicting past the retry cap.
var errRetryCap = errors.New("retry cap exceeded")

// accounting counts operations against failures. A conflict that is retried
// is not a failure; an operation fails when it returns any other error or
// exhausts the retry cap.
type accounting struct {
	mu        sync.Mutex
	attempted int
	failed    int
	retries   int
	firstErr  error
}

// record books one operation that took `retries` conflict retries and ended
// with err (nil on success).
func (a *accounting) record(retries int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	a.retries += retries
	if err != nil {
		a.failed++
		if a.firstErr == nil {
			a.firstErr = err
		}
	}
}

// retryLoop runs op until it succeeds, fails with an error that conflict
// does not accept, or has been tried maxTries times. It returns the number
// of retries made and the final error.
func retryLoop(maxTries int, conflict func(error) bool, op func() error) (int, error) {
	for try := 0; ; try++ {
		err := op()
		if err == nil || !conflict(err) {
			return try, err
		}
		if try+1 >= maxTries {
			return try, fmt.Errorf("%w after %d tries: %v", errRetryCap, maxTries, err)
		}
	}
}

// checks collects output-check failures; the run is correct only when none
// was recorded.
type checks struct {
	mu    sync.Mutex
	fails []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	if len(c.fails) < 20 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fails) == 0
}

// inputHash hashes generated inputs so two runs can show they drove the
// program with identical data.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		ih.h.Write(b[:])
	}
}

func (ih *inputHash) str(s string) {
	ih.ints(int64(len(s)))
	ih.h.Write([]byte(s))
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil))[:16] }

// fsyncProbe times write+fsync of one 4 KiB block in dir, n times, and
// returns the median in microseconds: the disk's cost floor for one
// durable commit.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		block[0] = byte(i)
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// sourceHash identifies the code under test by hashing the module's Go
// sources and go.mod under root, skipping the build directory. The
// benchmark may run in a checkout that is not a git repository, so this
// stands in for the commit id.
func sourceHash(root, skip string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == skip || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkersLive feeds each workload's output check one corrupted answer and
// returns an error unless every check rejects it, so a run cannot report
// correct output from a checker that accepts anything.
func checkersLive() error {
	good := [][]any{{int64(8), int64(0), ycsbF1(8), ycsbF2(8)}}
	if checkPointRow(8, good) != nil {
		return errors.New("ycsb point check rejects a correct row")
	}
	bad := [][]any{{int64(8), int64(0), ycsbF1(8) + 1, ycsbF2(8)}}
	if checkPointRow(8, bad) == nil {
		return errors.New("ycsb point check accepts a corrupted row")
	}
	keys := make([]int64, ycsbScanLen)
	for i := range keys {
		keys[i] = int64(100 + i)
	}
	keys[ycsbScanLen-1] = 100
	if checkScan(100, keys) == nil {
		return errors.New("ycsb scan check accepts a duplicated key")
	}
	if _, err := predictMAE([]float64{math.NaN()}, []int64{1}, map[int64]float64{1: 0.5}); err == nil {
		return errors.New("predict check accepts a NaN prediction")
	}
	if err := statsCheckerLive(); err != nil {
		return err
	}
	return nil
}
