package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The sweep engine. A sweep names one leaf of the document by its JSON
// path and a value series; Simulate clones the base spec once per
// value, substitutes the leaf, and runs every point as an independent
// experiment. Because each point is a fully deterministic simulation
// sharing no state with its neighbors, the points execute concurrently
// on a bounded worker pool and the series is reassembled in value
// order — the resulting Report is bit-identical to a serial run, so
// parallelism is purely a wall-clock win (the repo's first).

// SweepPoint is one entry of a sweep series: the substituted value and
// the point's full Report.
type SweepPoint struct {
	Value  any     `json:"value"`
	Report *Report `json:"report"`
}

// pathSeg is one segment of a JSON path: a field name with an optional
// list index ("groups[2]").
type pathSeg struct {
	name string
	idx  int // -1 when the segment carries no index
}

// splitPath parses a JSON path like "fleet.groups[0].count" into
// segments.
func splitPath(path string) ([]pathSeg, error) {
	parts := strings.Split(path, ".")
	segs := make([]pathSeg, 0, len(parts))
	for _, raw := range parts {
		seg := pathSeg{name: raw, idx: -1}
		if i := strings.IndexByte(raw, '['); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSuffix(raw[i+1:], "]"))
			if !strings.HasSuffix(raw, "]") || err != nil || n < 0 {
				return nil, fmt.Errorf("malformed index in segment %q", raw)
			}
			seg.name, seg.idx = raw[:i], n
		}
		if seg.name == "" {
			return nil, fmt.Errorf("empty segment in path %q", path)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// fieldByJSONTag finds the struct field whose json tag names seg.
func fieldByJSONTag(v reflect.Value, name string) (reflect.Value, bool) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.PkgPath != "" {
			continue // unexported (baseDir)
		}
		if tag, _, _ := strings.Cut(sf.Tag.Get("json"), ","); tag == name {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

// resolveField walks the spec document along a JSON path and returns
// the addressed leaf, settable in place. The walk fails on unknown
// field names, sections absent from the base document, out-of-range
// indices, and targets that are not numeric or string leaves.
func resolveField(s *Spec, path string) (reflect.Value, error) {
	segs, err := splitPath(path)
	if err != nil {
		return reflect.Value{}, err
	}
	v := reflect.ValueOf(s).Elem()
	walked := "" // the path resolved so far, for error messages
	for _, seg := range segs {
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return reflect.Value{}, fmt.Errorf("section %q is not present in the base document", walked)
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return reflect.Value{}, fmt.Errorf("%q does not contain fields", walked)
		}
		f, ok := fieldByJSONTag(v, seg.name)
		if !ok {
			where := "the document root"
			if walked != "" {
				where = fmt.Sprintf("%q", walked)
			}
			return reflect.Value{}, fmt.Errorf("no field %q under %s", seg.name, where)
		}
		if walked != "" {
			walked += "."
		}
		walked += seg.name
		v = f
		if seg.idx >= 0 {
			for v.Kind() == reflect.Pointer {
				if v.IsNil() {
					return reflect.Value{}, fmt.Errorf("section %q is not present in the base document", walked)
				}
				v = v.Elem()
			}
			if v.Kind() != reflect.Slice {
				return reflect.Value{}, fmt.Errorf("%q is not a list", walked)
			}
			if seg.idx >= v.Len() {
				return reflect.Value{}, fmt.Errorf("index %d out of range for %q (%d entries)", seg.idx, walked, v.Len())
			}
			v = v.Index(seg.idx)
			walked += fmt.Sprintf("[%d]", seg.idx)
		}
	}
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return reflect.Value{}, fmt.Errorf("section %q is not present in the base document", walked)
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.String, reflect.Int, reflect.Int32, reflect.Int64,
		reflect.Float32, reflect.Float64:
		return v, nil
	}
	return reflect.Value{}, fmt.Errorf("%q is not a numeric or string leaf (it is a %s)", walked, v.Kind())
}

// toFloat widens any numeric sweep value. JSON decoding always yields
// float64; in-code callers may hand over native integer types.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// setLeaf writes one sweep value into a resolved leaf, enforcing type
// compatibility: string leaves take strings, integer leaves take
// integral numbers, float leaves take any number.
func setLeaf(leaf reflect.Value, v any) error {
	switch leaf.Kind() {
	case reflect.String:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("the field is a string, got %T value %v", v, v)
		}
		leaf.SetString(s)
	case reflect.Int, reflect.Int32, reflect.Int64:
		f, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("the field is an integer, got %T value %v", v, v)
		}
		if f != math.Trunc(f) {
			return fmt.Errorf("the field is an integer, got non-integral %g", f)
		}
		// Range-check in float space first: int64(f) is implementation-
		// defined for out-of-range floats (MinInt64 on amd64), which
		// would slip past OverflowInt as a silently wrong value.
		if f < math.MinInt64 || f >= math.MaxInt64 {
			return fmt.Errorf("value %g overflows the field", f)
		}
		if leaf.OverflowInt(int64(f)) {
			return fmt.Errorf("value %g overflows the field", f)
		}
		leaf.SetInt(int64(f))
	case reflect.Float32, reflect.Float64:
		f, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("the field is numeric, got %T value %v", v, v)
		}
		leaf.SetFloat(f)
	default:
		return fmt.Errorf("field kind %s is not sweepable", leaf.Kind())
	}
	return nil
}

// checkAssignable type-checks a sweep value against a leaf without
// mutating the document: setLeaf against a scratch copy of the leaf's
// type.
func checkAssignable(leaf reflect.Value, v any) error {
	return setLeaf(reflect.New(leaf.Type()).Elem(), v)
}

// maxSweepSteps bounds the range form: beyond it a typoed steps value
// would allocate the series (and launch that many simulations) before
// anything useful happened. Explicit value lists carry their own cost
// in the document and are not capped.
const maxSweepSteps = 10000

// points materializes the sweep's value series: the explicit list, or
// Steps points from From to To spaced by Scale. Validate guarantees
// exactly one form is present and well-formed.
func (sw *SweepSpec) points() []any {
	if len(sw.Values) > 0 {
		return sw.Values
	}
	vals := make([]any, sw.Steps)
	for i := range vals {
		frac := float64(i) / float64(sw.Steps-1)
		if sw.Scale == "log" {
			vals[i] = sw.From * math.Pow(sw.To/sw.From, frac)
		} else {
			vals[i] = sw.From + (sw.To-sw.From)*frac
		}
	}
	return vals
}

// rangeForm reports whether any range-form knob is set (Values absent
// alone does not distinguish "range" from "forgot both").
func (sw *SweepSpec) rangeForm() bool {
	return sw.From != 0 || sw.To != 0 || sw.Steps != 0 || sw.Scale != ""
}

// clone deep-copies the spec through its JSON form — the document is
// fully JSON-serializable by construction — preserving the unexported
// base directory so relative trace_file / platform_file references keep
// resolving.
func (s *Spec) clone() (*Spec, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("spec: cloning sweep base: %w", err)
	}
	c := &Spec{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("spec: cloning sweep base: %w", err)
	}
	c.baseDir = s.baseDir
	return c, nil
}

// pointSpec builds the document one sweep point simulates: the base
// cloned, the swept leaf substituted, the sweep section removed.
func (s *Spec) pointSpec(v any) (*Spec, error) {
	c, err := s.clone()
	if err != nil {
		return nil, err
	}
	c.Sweep = nil
	// Metrics are extracted once over the assembled series; a point
	// carrying the report section would duplicate them per point.
	c.Report = nil
	leaf, err := resolveField(c, s.Sweep.Field)
	if err != nil {
		return nil, err
	}
	if err := setLeaf(leaf, v); err != nil {
		return nil, err
	}
	return c, nil
}

// pointOptions rebuilds the option list a sweep point's Simulate call
// inherits. The worker knob stays at the sweep level.
func pointOptions(o *options) []Option {
	var opts []Option
	if o.observer != nil {
		opts = append(opts, WithObserver(o.observer))
		if o.progressEvery > 0 {
			opts = append(opts, WithProgressEvery(o.progressEvery))
		}
	}
	return opts
}

// simulateSweep runs every sweep point and assembles the ordered
// series. Points run concurrently on a bounded worker pool; results
// land in per-point slots, so the assembled Report (and the first
// error, chosen in value order) is identical to a serial run. An
// observer forces one worker: the event stream then arrives point by
// point in value order instead of interleaved across goroutines.
func (s *Spec) simulateSweep(o *options) (*Report, error) {
	pts := s.Sweep.points()
	workers := o.sweepWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if o.observer != nil {
		workers = 1
	}
	if workers > len(pts) {
		workers = len(pts)
	}

	field := s.Sweep.Field
	reports := make([]*Report, len(pts))
	errs := make([]error, len(pts))
	// minFail tracks the lowest failed point index so the pool stops
	// burning compute on a sweep that already died. A point is skipped
	// only when a strictly lower index has failed, so the lowest failing
	// point always runs and the returned error is deterministic — the
	// same one a serial run would report.
	var minFail atomic.Int64
	minFail.Store(int64(len(pts)))
	runPoint := func(i int) {
		if minFail.Load() < int64(i) {
			return
		}
		pt, err := s.pointSpec(pts[i])
		if err == nil {
			reports[i], err = Simulate(pt, pointOptions(o)...)
		}
		if err != nil {
			errs[i] = fmt.Errorf("sweep point %d (%s = %v): %w", i, field, pts[i], err)
			for {
				cur := minFail.Load()
				if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	}
	if workers == 1 {
		for i := range pts {
			runPoint(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range pts {
			wg.Add(1)
			//skiplint:allow goroutine — the sweep worker pool: each point simulates an independent spec clone and lands in its own slot; reassembly is by index, proven bit-identical to serial at any worker count
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runPoint(i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	series := make([]SweepPoint, len(pts))
	for i := range pts {
		series[i] = SweepPoint{Value: pts[i], Report: reports[i]}
	}
	return &Report{Kind: KindSweep, SweepField: field, Sweep: series}, nil
}
