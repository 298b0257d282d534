package config

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
)

// ParseINI reads a SCALE-Sim style .cfg file over Default(). Config's json
// tags are the key table: any json key of Config is a .cfg key, and an ini
// tag adds SCALE-Sim's spelling where it differs (ArrayHeight for
// array_rows). Keys are case-insensitive with spaces, dashes and underscores
// ignored. [general], [architecture_presets], [architecture] and lines
// before any section are equivalent and set the top-level fields, so
// "[general] ArrayHeight : 8" works; every other section is the json name of
// a Config section ([sparsity], [memory], [layout], [energy], [multicore]).
// Unknown sections and keys are rejected so typos surface.
//
// Example:
//
//	[general]
//	run_name = my_run
//
//	[architecture_presets]
//	ArrayHeight : 32
//	ArrayWidth  : 32
//	IfmapSramSzkB : 512
//	FilterSramSzkB : 512
//	OfmapSramSzkB : 256
//	Dataflow : os
//	Bandwidth : 10
//
//	[sparsity]
//	SparsitySupport : true
//	OptimizedMapping : false
//	SparseRep : ellpack_block
//	BlockSize : 4
func ParseINI(r io.Reader) (Config, error) {
	cfg := Default()
	section := ""
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			section = canonKey(line[1 : len(line)-1])
			continue
		}
		key, val, err := splitKV(line)
		if err != nil {
			return cfg, fmt.Errorf("config: line %d: %w", lineNo, err)
		}
		if err := setKey(&cfg, section, key, val); err != nil {
			return cfg, fmt.Errorf("config: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return cfg, fmt.Errorf("config: %w", err)
	}
	return cfg, cfg.Validate()
}

// LoadINI parses the configuration file at path.
func LoadINI(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ParseINI(f)
}

func splitKV(line string) (key, val string, err error) {
	sep := strings.IndexAny(line, "=:")
	if sep < 0 {
		return "", "", fmt.Errorf("expected key = value, got %q", line)
	}
	key = canonKey(line[:sep])
	val = strings.TrimSpace(line[sep+1:])
	if key == "" {
		return "", "", fmt.Errorf("empty key in %q", line)
	}
	return key, val, nil
}

// canonKey lower-cases and strips separators so "Array Height",
// "array_height" and "ArrayHeight" all match.
func canonKey(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '_', '-':
			return -1
		}
		return r
	}, s)
}

func parseBool(val string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(val)) {
	case "true", "yes", "on", "1":
		return true, nil
	case "false", "no", "off", "0":
		return false, nil
	}
	return false, fmt.Errorf("invalid boolean %q", val)
}

// setKey parses val into the field that the canonical section and key name.
func setKey(cfg *Config, section, key, val string) error {
	v := reflect.ValueOf(cfg).Elem()
	switch section {
	case "", "general", "architecturepresets", "architecture":
	default:
		sec, ok := fieldByKey(v, section)
		if !ok || sec.Kind() != reflect.Struct {
			return fmt.Errorf("unknown section %q", section)
		}
		v = sec
	}
	f, ok := fieldByKey(v, key)
	if !ok || f.Kind() == reflect.Struct {
		return fmt.Errorf("unknown key %q in section %q", key, section)
	}
	// The enums parse through their JSON form, which accepts exactly the
	// spellings their Parse* functions do.
	if u, ok := f.Addr().Interface().(json.Unmarshaler); ok {
		quoted, _ := json.Marshal(val) // marshalling a string cannot fail
		return u.UnmarshalJSON(quoted)
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(val)
	case reflect.Bool:
		b, err := parseBool(val)
		if err != nil {
			return err
		}
		f.SetBool(b)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(val, 10, f.Type().Bits())
		if err != nil {
			return fmt.Errorf("key %s: invalid integer %q", key, val)
		}
		f.SetInt(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("key %s: invalid float %q", key, val)
		}
		f.SetFloat(x)
	default: // MultiCore.Cores, the one list-valued field
		cores, err := parseCoreList(val)
		if err != nil {
			return err
		}
		f.Set(reflect.ValueOf(cores))
	}
	return nil
}

// fieldByKey returns the field of struct v whose json name or ini tag
// canonicalises to key. key must not be empty, which an absent ini tag
// canonicalises to.
func fieldByKey(v reflect.Value, key string) (reflect.Value, bool) {
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		name, _, _ := strings.Cut(tag.Get("json"), ",")
		if canonKey(name) == key || canonKey(tag.Get("ini")) == key {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

// parseCoreList parses a heterogeneous core list such as
// "32x32, 16x16/hops=2, 64x64".
func parseCoreList(val string) ([]CoreSpec, error) {
	var cores []CoreSpec
	for _, item := range strings.Split(val, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, "/")
		dims := strings.Split(strings.ToLower(parts[0]), "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("invalid core shape %q (want RxC)", parts[0])
		}
		r, err := strconv.Atoi(strings.TrimSpace(dims[0]))
		if err != nil {
			return nil, fmt.Errorf("invalid core rows %q", dims[0])
		}
		c, err := strconv.Atoi(strings.TrimSpace(dims[1]))
		if err != nil {
			return nil, fmt.Errorf("invalid core cols %q", dims[1])
		}
		spec := CoreSpec{Rows: r, Cols: c}
		for _, opt := range parts[1:] {
			kv := strings.SplitN(opt, "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("invalid core option %q", opt)
			}
			if canonKey(kv[0]) != "hops" {
				return nil, fmt.Errorf("unknown core option %q", kv[0])
			}
			v, err := strconv.Atoi(strings.TrimSpace(kv[1]))
			if err != nil {
				return nil, fmt.Errorf("invalid core option value %q", kv[1])
			}
			spec.NoPHops = v
		}
		cores = append(cores, spec)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("empty core list")
	}
	return cores, nil
}
