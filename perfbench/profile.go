package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfTime decodes a runtime/pprof CPU profile (gzipped profile.proto) and
// returns each function's self time, attributed to the innermost inlined
// frame of each sample's leaf location, in the profile's last sample value
// (CPU nanoseconds).
func selfTime(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		decodeErr error
	)
	err = fields(raw, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // sample
			var s sample
			var locs []uint64
			var vals []int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, b []byte) {
				switch n {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
			}))
			if len(locs) > 0 && len(vals) > 0 {
				s.leaf, s.value = locs[0], vals[len(vals)-1]
				samples = append(samples, s)
			}
		case 4: // location
			var id, fn uint64
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, b []byte) {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if fn == 0 {
						decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, _ []byte) {
							if n == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "unknown"
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.value
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			fn(num, v, nil)
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// unpacked (b == nil), a packed run otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning its byte length (0 when
// truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuPackages are the internal packages whose self-time share is reported
// as <pkg>.cpu_share.
var cpuPackages = []string{"sim", "link", "cell", "flight", "gcc", "scream", "cc", "rtp", "video", "repair", "bond", "fault", "metrics", "obs", "core"}

// shareKeys lists every cpu_share metric: one per internal package, then
// the runtime's collection, allocation and map costs.
func shareKeys() []string {
	var out []string
	for _, p := range cpuPackages {
		out = append(out, p+".cpu_share")
	}
	return append(out, "runtime.gc_share", "runtime.malloc_share", "runtime.map_share")
}

// runtime function-name prefixes by cost class. GC is tested first so the
// sweeper's span methods do not count as allocation.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.(*gcWork)", "runtime.scan", "runtime.greyobject", "runtime.markroot",
		"runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers",
		"runtime.(*mspan).typePointers", "runtime.markBits", "runtime.(*markBits)", "runtime.spanOf",
		"runtime.pageIndexOf", "runtime.(*gcBits)", "runtime.bgsweep", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	}
	mallocPrefixes = []string{
		"runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
		"runtime.nextFreeFast", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
		"runtime.(*mspan)", "runtime.memclrNoHeapPointers", "runtime.heapSetType", "runtime.(*fixalloc)",
	}
	mapPrefixes = []string{"internal/runtime/maps.", "runtime.map", "runtime.memhash", "runtime.aeshash", "runtime.strhash", "runtime.f64hash", "runtime.interhash", "runtime.nilinterhash"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// shareKey classifies one function into its cpu_share metric name, or ""
// for time reported under no metric.
func shareKey(fn string) string {
	const internal = "rpivideo/internal/"
	if strings.HasPrefix(fn, internal) {
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg + ".cpu_share"
	}
	switch {
	case hasAnyPrefix(fn, gcPrefixes):
		return "runtime.gc_share"
	case hasAnyPrefix(fn, mallocPrefixes):
		return "runtime.malloc_share"
	case hasAnyPrefix(fn, mapPrefixes):
		return "runtime.map_share"
	}
	return ""
}

// cpuShares turns self times into shares of the profile's total.
func cpuShares(self map[string]int64) map[string]float64 {
	var total int64
	out := make(map[string]float64)
	for _, v := range self {
		total += v
	}
	if total == 0 {
		return out
	}
	for fn, v := range self {
		if k := shareKey(fn); k != "" {
			out[k] += float64(v) / float64(total)
		}
	}
	return out
}
