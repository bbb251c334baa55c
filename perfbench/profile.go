package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// stack is one profile sample: its function names leaf first and its
// values in the profile's sample-type order.
type stack struct {
	funcs  []string
	values []int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's values and
// the function names of its frames (inlined frames included, leaf
// first). The standard library ships no public decoder, so this reads the
// protobuf wire format directly.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					s.values = appendPacked(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			st.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling f with each field's
// number, wire type and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a symbol name as pprof prints it,
// e.g. "unitdb/internal/core/admission.(*Controller).Admit" ->
// "unitdb/internal/core/admission".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuLayers are the buckets CPU time is attributed to, in report order.
var cpuLayers = []string{
	"eventsim", "readyq", "lockmgr", "engine", "txn", "core", "core_admission",
	"core_ufm", "lottery", "baseline", "baseline_qmf", "workload", "datastore",
	"server", "obs", "net_http", "encoding_json", "syscall", "runtime_gc",
	"loadgen", "tracing", "other",
}

// layerOfPackage maps an import path to its layer, "" when the package is
// not a layer of its own (its time goes to the nearest caller that is).
func layerOfPackage(pkg string) string {
	const in = "unitdb/internal/"
	switch pkg {
	case in + "eventsim", in + "readyq", in + "lockmgr", in + "engine", in + "txn",
		in + "lottery", in + "workload", in + "datastore", in + "server":
		return strings.TrimPrefix(pkg, in)
	case in + "core", in + "core/usm", in + "core/control":
		return "core"
	case in + "core/admission":
		return "core_admission"
	case in + "core/ufm":
		return "core_ufm"
	case in + "baseline":
		return "baseline"
	case in + "baseline/qmf":
		return "baseline_qmf"
	case "encoding/json":
		return "encoding_json"
	case "net/http", "net/http/internal", "net/http/internal/ascii", "net/textproto", "net/url", "net", "mime":
		return "net_http"
	case "syscall", "internal/poll", "internal/syscall/unix", "internal/runtime/syscall":
		return "syscall"
	}
	if strings.HasPrefix(pkg, in+"obs") {
		return "obs"
	}
	return ""
}

// isGC reports whether a frame is garbage-collector work.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// tracingFrames are the benchmark's own instrumentation, whose cost is
// measurement overhead rather than load generation.
var tracingFrames = []string{"main.(*timedPolicy)", "main.(*latencyPolicy)", "main.(*handlerTimer)", "main.(*spanLog)"}

// loadGenFrames mark a stack as the load generator's: the pacing loop and
// the HTTP client, whose response parsing runs in net/http and
// encoding/json below these frames.
var loadGenFrames = []string{"main.paceOpenLoop", "main.sleepUntil", "main.(*readClient)", "main.(*readWorker)"}

// isLoadGen reports whether a frame belongs to the load generator.
func isLoadGen(fn string) bool {
	for _, p := range loadGenFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// classify names the layer one CPU sample is charged to. Garbage
// collection wins wherever it runs; the load generator's stacks are
// charged whole (its JSON decoding is not the server's); otherwise the innermost frame belonging to a layer
// takes the sample, so standard-library work (sort, reflect, maps,
// allocation) is charged to the layer that called it, unless the library
// is a layer itself (encoding/json, net/http, syscalls).
func classify(funcs []string) string {
	for _, fn := range funcs {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range funcs {
		if isLoadGen(fn) {
			return "loadgen"
		}
	}
	for _, fn := range funcs {
		if packageOf(fn) == "main" {
			for _, p := range tracingFrames {
				if strings.HasPrefix(fn, p) {
					return "tracing"
				}
			}
			return "loadgen"
		}
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// cpuShares turns CPU samples into each layer's share of the sampled CPU
// time (value index 1 is nanoseconds in a Go CPU profile).
func cpuShares(samples []stack) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		ns := float64(s.values[1])
		out[classify(s.funcs)] += ns
		total += ns
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}

// mutexWaitNS sums the contention delay (value index 1, nanoseconds) of
// samples with a frame in package pkg.
func mutexWaitNS(samples []stack, pkg string) float64 {
	var ns float64
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		for _, fn := range s.funcs {
			if packageOf(fn) == pkg {
				ns += float64(s.values[1])
				break
			}
		}
	}
	return ns
}

// profiler captures a CPU profile and the mutex profile over one phase.
type profiler struct {
	cpu bytes.Buffer
}

// cpuProfileHz is the CPU sampling rate: five times the default, so a
// few seconds of a mostly idle live workload still yield enough samples.
const cpuProfileHz = 500

func startProfiler() (*profiler, error) {
	p := &profiler{}
	runtime.SetMutexProfileFraction(1)
	runtime.SetCPUProfileRate(cpuProfileHz) // StartCPUProfile keeps this rate (and says so on stderr)
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		runtime.SetMutexProfileFraction(0)
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the phase and returns the CPU and mutex samples.
func (p *profiler) stop() (cpu, mutex []stack, err error) {
	pprof.StopCPUProfile()
	var mu bytes.Buffer
	werr := pprof.Lookup("mutex").WriteTo(&mu, 0)
	runtime.SetMutexProfileFraction(0)
	if werr != nil {
		return nil, nil, fmt.Errorf("mutex profile: %w", werr)
	}
	if cpu, err = parseProfile(p.cpu.Bytes()); err != nil {
		return nil, nil, err
	}
	if mutex, err = parseProfile(mu.Bytes()); err != nil {
		return nil, nil, err
	}
	return cpu, mutex, nil
}
