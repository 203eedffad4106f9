// Package ledger flattens Go values into the exact ledger's lines (DESIGN.md
// §4): one "name value clock workload" line per number and boolean, named
// by its path and labelled with the clock of its type.
package ledger

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"mhm2sim/internal/clock"
)

// Append adds the lines of v below name to lines: a line per number and
// boolean, named by its path as encoding/json names it (tag name,
// omitempty, "-", embedded structs promoted), with list elements as "[i]".
// Strings give no line, and neither does a time.Duration: a host clock,
// which varies run to run. Whole numbers print whole, others at %.9g. The
// clock is the type's label (clock.Labels), or "count".
func Append(lines []string, name, workload string, v any) []string {
	return walk(lines, name, workload, reflect.ValueOf(v))
}

// Render is the ledger's text of lines: sorted by name (a space sorts below
// a name's characters), one a line.
func Render(lines []string) string {
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

func walk(lines []string, name, workload string, v reflect.Value) []string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			lines = walk(lines, name, workload, v.Elem())
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			lines = walk(lines, name+"."+fmt.Sprint(it.Key()), workload, it.Value())
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			lines = walk(lines, name+"["+strconv.Itoa(i)+"]", workload, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			tag := f.Tag.Get("json")
			key, opts, _ := strings.Cut(tag, ",")
			switch kind := fv.Kind(); {
			case tag == "-", !f.IsExported() && !f.Anonymous: // not encoded
			case strings.Contains(opts, "omitempty") && fv.IsZero() && kind != reflect.Struct && kind != reflect.Array: // omitted
			case f.Anonymous && key == "":
				lines = walk(lines, name, workload, fv)
			default:
				lines = walk(lines, name+"."+cmp.Or(key, f.Name), workload, fv)
			}
		}
	case reflect.Bool:
		lines = append(lines, name+" "+strconv.FormatBool(v.Bool())+" count "+workload)
	default:
		var s string
		switch {
		case v.Type() == reflect.TypeFor[time.Duration]():
			return lines
		case v.CanInt():
			s = strconv.FormatInt(v.Int(), 10)
		case v.CanUint():
			s = strconv.FormatUint(v.Uint(), 10)
		case v.CanFloat():
			s = strconv.FormatFloat(v.Float(), 'f', -1, 64)
			if f := v.Float(); f != math.Trunc(f) || math.Abs(f) >= 1e21 {
				s = fmt.Sprintf("%.9g", f)
			}
		default:
			return lines
		}
		lines = append(lines, name+" "+s+" "+cmp.Or(clock.Labels[v.Type()], "count")+" "+workload)
	}
	return lines
}
