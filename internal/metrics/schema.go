package metrics

// The metric schema. Every exported counter and gauge is one struct
// field whose tag declares it once:
//
//	Probes uint64 `metric:"patree_probes_total counter sum" help:"Completion-queue probes."`
//
// The metric tag is "<name> <type> <fold>". The name is the Prometheus
// series, constant labels included (patree_read_ahead_total{outcome=hit}),
// or "-" for a field that folds and prints as text but has no series of
// its own (a summary's count, a total). The type is counter or gauge. The
// fold rule says how per-shard or per-connection values combine: sum,
// max, or derived (set once for the whole store after the fold, which
// leaves it alone). Help goes on a family's first field. Fold, Fields
// and WriteText walk the tags by reflection, so they belong at snapshot
// and scrape time, never on an operation's path. Untagged struct fields
// are walked into; other untagged fields are not metrics.

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"
)

type spec struct{ name, typ, fold, help string }

// specOf parses f's tag; ok is false for an untagged field.
func specOf(f reflect.StructField) (s spec, ok bool) {
	tag, ok := f.Tag.Lookup("metric")
	if !ok || !f.IsExported() {
		return s, false
	}
	parts := strings.Fields(tag)
	if len(parts) != 3 {
		panic(fmt.Sprintf("metrics: %s: tag %q is not \"<name> <type> <fold>\"", f.Name, tag))
	}
	return spec{parts[0], parts[1], parts[2], f.Tag.Get("help")}, true
}

// nested reports whether f is an untagged struct field to walk into.
func nested(f reflect.StructField) bool {
	return f.IsExported() && f.Type.Kind() == reflect.Struct && f.Tag.Get("metric") == ""
}

// each calls fn for every tagged field of the struct v, walking into
// untagged struct fields (embedded or not) depth first. src, when
// valid, is a second value of v's type walked in step, whose field fn
// gets as sv.
func each(v, src reflect.Value, fn func(f reflect.StructField, s spec, fv, sv reflect.Value)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		var sv reflect.Value
		if src.IsValid() {
			sv = src.Field(i)
		}
		if f := t.Field(i); nested(f) {
			each(v.Field(i), sv, fn)
		} else if s, ok := specOf(f); ok {
			fn(f, s, v.Field(i), sv)
		}
	}
}

// Fold folds src into dst as each field's tag says: sum adds, max keeps
// the larger, derived leaves dst as it is.
func Fold[T any](dst, src *T) {
	each(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), func(f reflect.StructField, s spec, dv, sv reflect.Value) {
		switch s.fold {
		case "sum":
			switch {
			case sv.CanUint():
				dv.SetUint(dv.Uint() + sv.Uint())
			case sv.CanInt():
				dv.SetInt(dv.Int() + sv.Int())
			default:
				dv.SetFloat(dv.Float() + sv.Float())
			}
		case "max":
			if (sv.CanUint() && sv.Uint() > dv.Uint()) || (sv.CanInt() && sv.Int() > dv.Int()) ||
				(sv.CanFloat() && sv.Float() > dv.Float()) {
				dv.Set(sv)
			}
		case "derived":
		default:
			panic("metrics: " + f.Name + ": unknown fold rule " + s.fold)
		}
	})
}

// Summary is the headline view of one distribution, as JSON snapshots
// carry it and as a Prometheus summary family exposes it.
type Summary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summarize returns h's Summary; nil or empty h gives the zero Summary.
func Summarize(h *Histogram) Summary {
	if h == nil || h.Count() == 0 {
		return Summary{}
	}
	return Summary{h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max()}
}

// Exposition collects Prometheus text-format (0.0.4) families in the
// order they are first seen and writes each as one block: its HELP and
// TYPE lines, then every sample added to it, whichever call added it.
type Exposition struct{ fams []*family }

type family struct {
	name, typ, help string
	lines           []string
}

func (e *Exposition) family(name, typ, help string) *family {
	for _, f := range e.fams {
		if f.name == name {
			if f.help == "" {
				f.help = help
			}
			return f
		}
	}
	f := &family{name: name, typ: typ, help: help}
	e.fams = append(e.fams, f)
	return f
}

// Fields adds one sample for every tagged field of v (a struct or a
// pointer to one) whose name is not "-".
func (e *Exposition) Fields(v any) {
	each(reflect.Indirect(reflect.ValueOf(v)), reflect.Value{}, func(_ reflect.StructField, s spec, fv, _ reflect.Value) {
		if s.name == "-" {
			return
		}
		name, labels, _ := strings.Cut(s.name, "{")
		var kv []string
		for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, v, ok := strings.Cut(l, "="); ok {
				kv = append(kv, k, v)
			}
		}
		e.Add(name, s.typ, s.help, fv.Interface(), kv...)
	})
}

// Add adds one sample to family name; labels are key, value pairs.
// Durations are written in seconds.
func (e *Exposition) Add(name, typ, help string, value any, labels ...string) {
	f := e.family(name, typ, help)
	f.lines = append(f.lines, sample(name, labels, value))
}

// Summary adds a summary family's samples for s: the 0.5, 0.95 and 0.99
// quantiles, _sum and _count. With seconds false the values are plain
// numbers that were recorded as durations (a burst size, say).
func (e *Exposition) Summary(name, help string, s Summary, seconds bool, labels ...string) {
	f := e.family(name, "summary", help)
	val := func(d time.Duration) any {
		if seconds {
			return d
		}
		return int64(d)
	}
	for _, q := range []struct {
		q string
		d time.Duration
	}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
		f.lines = append(f.lines, sample(name, append(labels[:len(labels):len(labels)], "quantile", q.q), val(q.d)))
	}
	f.lines = append(f.lines,
		sample(name+"_sum", labels, val(time.Duration(s.Count)*s.Mean)),
		sample(name+"_count", labels, s.Count))
}

func sample(name string, labels []string, value any) string {
	if len(labels) > 0 {
		var kv []string
		for i := 0; i+1 < len(labels); i += 2 {
			kv = append(kv, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
		}
		name += "{" + strings.Join(kv, ",") + "}"
	}
	if d, ok := value.(time.Duration); ok {
		return fmt.Sprintf("%s %g", name, d.Seconds())
	}
	return fmt.Sprintf("%s %v", name, value)
}

// WriteTo writes every family collected so far.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range e.fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, l := range f.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteText writes every tagged field of v as Name=value: the fields of
// v and of its embedded structs on the first line, then one line per
// nested struct field that holds tagged fields, prefixed with its name.
// This is the human-readable form pacli prints.
func WriteText(w io.Writer, v any) {
	writeText(w, "", reflect.Indirect(reflect.ValueOf(v)))
}

func writeText(w io.Writer, prefix string, v reflect.Value) {
	var line, names []string
	var inner []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Type().Field(i); {
			case nested(f) && f.Anonymous:
				walk(v.Field(i))
			case nested(f):
				names, inner = append(names, f.Name), append(inner, v.Field(i))
			case f.Tag.Get("metric") != "":
				line = append(line, fmt.Sprintf("%s=%v", f.Name, v.Field(i).Interface()))
			}
		}
	}
	walk(v)
	if len(line) > 0 {
		fmt.Fprintf(w, "%s%s\n", prefix, strings.Join(line, " "))
	}
	for i, iv := range inner {
		writeText(w, names[i]+": ", iv)
	}
}
