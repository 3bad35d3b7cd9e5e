package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rssSampler reads the resident set every 50 ms.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v := residentMB(); v > 0 {
					s.mb = append(s.mb, v)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the q-quantile of its samples.
func (s *rssSampler) finish(q float64) float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.mb)
	return quantileSorted(s.mb, q)
}

// residentMB reads the current resident set from /proc/self/statm, in MiB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
