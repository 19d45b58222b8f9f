package patree_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/server"
)

// metricStructs are the struct types whose numeric fields are exported
// metrics. Other nested structs (histogram views) are not walked.
var metricStructs = map[reflect.Type]bool{
	reflect.TypeOf(patree.Stats{}):        true,
	reflect.TypeOf(patree.Counters{}):     true,
	reflect.TypeOf(patree.CPUBreakdown{}): true,
	reflect.TypeOf(patree.ProbeStats{}):   true,
	reflect.TypeOf(server.Stats{}):        true,
}

// schemaField is one numeric field reached from a snapshot's root.
type schemaField struct {
	path  []string // JSON keys from the root
	index []int    // reflect index from the root
	name  string
	tag   []string // name, type, fold
	v     reflect.Value
}

// schemaFields walks v and its metric structs, giving every numeric
// field the next distinct value from *next; untagged ones fail t.
func schemaFields(t *testing.T, v reflect.Value, path []string, index []int, next *int) []schemaField {
	var out []schemaField
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key := f.Name
		if j, _, _ := strings.Cut(f.Tag.Get("json"), ","); j != "" {
			key = j
		}
		idx := append(index[:len(index):len(index)], i)
		switch fv.Kind() {
		case reflect.Struct:
			if f.Anonymous {
				out = append(out, schemaFields(t, fv, path, idx, next)...)
			} else if metricStructs[f.Type] {
				out = append(out, schemaFields(t, fv, append(path[:len(path):len(path)], key), idx, next)...)
			}
			continue
		case reflect.Uint64, reflect.Uint32, reflect.Uint, reflect.Int64, reflect.Int:
			if fv.CanUint() {
				fv.SetUint(uint64(*next))
			} else {
				fv.SetInt(int64(*next))
			}
		case reflect.Float64:
			fv.SetFloat(float64(*next))
		default:
			continue
		}
		*next++
		tag := strings.Fields(f.Tag.Get("metric"))
		if len(tag) != 3 {
			t.Errorf("%s.%s has no metric tag \"<name> <type> <fold>\"", v.Type(), f.Name)
			continue
		}
		out = append(out, schemaField{append(path[:len(path):len(path)], key), idx, f.Name, tag, fv})
	}
	return out
}

// TestMetricSchema gives every numeric field of the engine's and the
// server's Metrics snapshots a distinct value and checks that it comes
// out right in every surface: folded twice as its tag says (sum doubles,
// max keeps, derived stays zero), as its Prometheus sample, as
// Name=value in the text form, and under its key in the JSON snapshot.
// A numeric field without a tag, or two fields on one series, fail it.
func TestMetricSchema(t *testing.T) {
	next := 100
	var em patree.Metrics
	var sm server.Metrics
	eFields := schemaFields(t, reflect.ValueOf(&em).Elem(), nil, nil, &next)
	sFields := schemaFields(t, reflect.ValueOf(&sm).Elem(), nil, nil, &next)
	var efold patree.Metrics
	var sfold server.Metrics
	for i := 0; i < 2; i++ {
		metrics.Fold(&efold, &em)
		metrics.Fold(&sfold, &sm)
	}
	var eprom, sprom, stext strings.Builder
	em.WritePrometheus(&eprom) //nolint:errcheck
	sm.WritePrometheus(&sprom) //nolint:errcheck
	metrics.WriteText(&stext, sm)
	surfaces := []struct {
		fields     []schemaField
		folded     reflect.Value
		prom, text string
		json       any
	}{
		{eFields, reflect.ValueOf(efold), eprom.String(), patree.FormatMetrics(em), em},
		{sFields, reflect.ValueOf(sfold), sprom.String(), stext.String(), sm},
	}

	series := map[string]string{}
	for _, s := range surfaces {
		promLines := map[string]bool{}
		for _, l := range strings.Split(s.prom, "\n") {
			promLines[l] = true
		}
		textTokens := map[string]bool{}
		for _, tok := range strings.Fields(s.text) {
			textTokens[tok] = true
		}
		raw, err := json.Marshal(s.json)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}

		for _, f := range s.fields {
			name, fold := f.tag[0], f.tag[2]
			id := strings.Join(f.path, ".")
			val := f.v.Interface()
			num := f.v.Convert(reflect.TypeOf(float64(0))).Float()

			// Fold.
			got := s.folded.FieldByIndex(f.index).Convert(reflect.TypeOf(float64(0))).Float()
			if want, ok := map[string]float64{"sum": 2 * num, "max": num, "derived": 0}[fold]; !ok {
				t.Errorf("%s: unknown fold rule %q", id, fold)
			} else if got != want {
				t.Errorf("%s: folded twice = %v, want %v (%s)", id, got, want, fold)
			}

			// Prometheus.
			if name != "-" {
				if other, dup := series[name]; dup {
					t.Errorf("%s and %s share the series %s", other, id, name)
				}
				series[name] = id
				line := promSeries(name)
				if d, ok := val.(time.Duration); ok {
					line += fmt.Sprintf(" %g", d.Seconds())
				} else {
					line += fmt.Sprintf(" %v", val)
				}
				if !promLines[line] {
					t.Errorf("%s: Prometheus text lacks %q", id, line)
				}
			}

			// Text.
			if tok := fmt.Sprintf("%s=%v", f.name, val); !textTokens[tok] {
				t.Errorf("%s: text form lacks %q", id, tok)
			}

			// JSON.
			var node any = doc
			for _, k := range f.path {
				m, _ := node.(map[string]any)
				node = m[k]
			}
			if node != num {
				t.Errorf("%s: JSON holds %v, want %v", id, node, num)
			}
		}
	}
	if len(series) == 0 {
		t.Fatal("no tagged series found")
	}
}

// promSeries renders a tag name's constant labels as a sample does.
func promSeries(name string) string {
	base, labels, ok := strings.Cut(name, "{")
	if !ok {
		return name
	}
	var kv []string
	for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		k, v, _ := strings.Cut(l, "=")
		kv = append(kv, fmt.Sprintf("%s=%q", k, v))
	}
	return base + "{" + strings.Join(kv, ",") + "}"
}
