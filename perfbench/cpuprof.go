package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuBucket maps a package path to the cpu.* metric its flat samples
// count toward. Packages not listed here form cpu.unattributed.
func cpuBucket(pkg string) string {
	const internal = "archcontest/internal/"
	if strings.HasPrefix(pkg, internal) {
		switch name := strings.TrimPrefix(pkg, internal); name {
		case "pipeline", "cache", "branch", "contest", "workload", "trace", "resultcache":
			return "cpu." + name
		}
		return ""
	}
	first, _, _ := strings.Cut(pkg, "/")
	switch {
	case first == "encoding", first == "crypto", first == "hash", first == "compress",
		pkg == "reflect", pkg == "strconv":
		return "cpu.encoding"
	case first == "net", first == "mime":
		return "cpu.net"
	case first == "runtime", first == "sync", strings.HasPrefix(pkg, "internal/runtime"):
		return "cpu.runtime"
	}
	return ""
}

var cpuMetrics = []string{
	"cpu.pipeline", "cpu.cache", "cpu.branch", "cpu.contest", "cpu.workload", "cpu.trace",
	"cpu.resultcache", "cpu.encoding", "cpu.net", "cpu.runtime",
}

// profile is a CPU profile being written to a file.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profile, error) {
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// stop ends the profile and reports each package bucket's share of the
// flat samples, as bucketed by the installed `go tool pprof`.
func (p *profile) stop(rep *report) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", p.path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := flatShares(out)
	if err != nil {
		return err
	}
	attributed := 0.0
	for _, m := range cpuMetrics {
		rep.values[m] = shares[m]
		attributed += shares[m]
	}
	rep.values["cpu.unattributed"] = 1 - attributed
	return nil
}

// flatShares parses `pprof -top` output and sums each line's flat time
// into its package bucket, as a share of all flat time.
func flatShares(top []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		total += flat.Seconds()
		if b := cpuBucket(funcPackage(f[5])); b != "" {
			shares[b] += flat.Seconds()
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// funcPackage returns the package path of a symbol such as
// "archcontest/internal/pipeline.(*Core).step".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold other package paths
	}
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}
