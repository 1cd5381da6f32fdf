package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
)

// marshalFinite encodes v like encoding/json, but leaves out every field
// that JSON cannot carry: a float that is NaN or ±Inf, or a float slice
// holding one. Map entries with such values are dropped one by one. Struct
// fields keep their declaration order, names and omitempty, so the result
// differs from json.Marshal only in the left-out fields. It covers the shapes
// of the event payloads (structs of scalars, slices, maps and pointers to
// such structs); embedded structs are not flattened.
func marshalFinite(v any) ([]byte, error) {
	return appendFinite(nil, reflect.ValueOf(v))
}

func appendFinite(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendFinite(b, v.Elem())
	case reflect.Struct:
		b = append(b, '{')
		first := true
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			tag := sf.Tag.Get("json")
			if !sf.IsExported() || tag == "-" {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "" {
				name = sf.Name
			}
			fv := v.Field(i)
			if !finite(fv) || (strings.Contains(","+opts+",", ",omitempty,") && isEmptyValue(fv)) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			key, err := json.Marshal(name)
			if err != nil {
				return nil, err
			}
			b = append(append(b, key...), ':')
			if b, err = appendFinite(b, fv); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	case reflect.Map:
		if isFloat(v.Type().Elem().Kind()) && !v.IsNil() {
			kept := reflect.MakeMapWithSize(v.Type(), v.Len())
			for it := v.MapRange(); it.Next(); {
				if finite(it.Value()) {
					kept.SetMapIndex(it.Key(), it.Value())
				}
			}
			v = kept
		}
	}
	data, err := json.Marshal(v.Interface())
	return append(b, data...), err
}

func isFloat(k reflect.Kind) bool { return k == reflect.Float64 || k == reflect.Float32 }

// finite reports whether v is not a non-finite float and not a float slice
// or array holding one.
func finite(v reflect.Value) bool {
	switch {
	case isFloat(v.Kind()):
		f := v.Float()
		return !math.IsNaN(f) && !math.IsInf(f, 0)
	case (v.Kind() == reflect.Slice || v.Kind() == reflect.Array) && isFloat(v.Type().Elem().Kind()):
		for i := 0; i < v.Len(); i++ {
			if !finite(v.Index(i)) {
				return false
			}
		}
	}
	return true
}

// isEmptyValue is encoding/json's omitempty test.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Interface, reflect.Pointer:
		return v.IsNil()
	}
	return false
}
