// Run-line encoding: the one encoder behind every run line replog writes —
// journal appends, the final log and worker chunks. It appends straight
// into a caller-owned buffer, so a steady-state line costs no allocation,
// and its output is byte-identical to encoding/json on the decode-side
// runLine type (field order, omitempty, HTML-safe string escaping): the
// tests pin it against json.Marshal on every bundled app's runs and under
// fuzzing, which is what lets Read, ResumeJournal and DecodeChunk keep
// decoding with encoding/json.
package replog

import (
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"

	"failatomic/internal/fault"
	"failatomic/internal/inject"
)

// writeRunLines writes each run's line to w in a single Write, encoding
// every line into one reused buffer. On failure it also returns the index
// of the run that failed.
func writeRunLines(w io.Writer, runs []inject.Run) (int, error) {
	var line []byte
	for i := range runs {
		var err error
		if line, err = appendRunLine(line[:0], &runs[i]); err != nil {
			return i, err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// runLinePrefix opens every run line appendRunLine encodes, and no
// section line.
var runLinePrefix = []byte(`{"injectionPoint":`)

// appendRunLine appends run's JSON line, without the trailing newline.
// Only a concurrent schedule's Concur record — rare, and already a plain
// JSON data type — goes through encoding/json, and only it can fail.
func appendRunLine(dst []byte, run *inject.Run) ([]byte, error) {
	dst = append(dst, runLinePrefix...)
	dst = strconv.AppendInt(dst, int64(run.InjectionPoint), 10)
	if run.Strategy != "" {
		dst = append(dst, `,"strategy":`...)
		dst = appendJSONString(dst, run.Strategy)
	}
	dst = appendIntField(dst, `,"arg":`, run.Arg)
	dst = appendIntField(dst, `,"sched":`, run.Sched)
	if run.Injected != nil {
		dst = appendException(append(dst, `,"injected":`...), run.Injected)
	}
	if run.Escaped != nil {
		dst = appendException(append(dst, `,"escaped":`...), run.Escaped)
	}
	for i := range run.Marks {
		m := &run.Marks[i]
		if i == 0 {
			dst = append(dst, `,"marks":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"method":`...)
		dst = appendJSONString(dst, m.Method)
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendInt(dst, int64(m.Seq), 10)
		dst = append(dst, `,"atomic":`...)
		dst = strconv.AppendBool(dst, m.Atomic)
		if m.Diff != "" {
			dst = append(dst, `,"diff":`...)
			dst = appendJSONString(dst, m.Diff)
		}
		if m.Exception != nil {
			dst = appendException(append(dst, `,"exception":`...), m.Exception)
		}
		if m.Masked {
			dst = append(dst, `,"masked":true`...)
		}
		dst = append(dst, '}')
	}
	if len(run.Marks) > 0 {
		dst = append(dst, ']')
	}
	if run.Status != inject.RunOK {
		dst = append(dst, `,"status":`...)
		dst = appendJSONString(dst, run.Status.String())
	}
	dst = appendIntField(dst, `,"retries":`, run.Retries)
	if run.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, run.Err)
	}
	if run.Concur != nil {
		concur, err := json.Marshal(run.Concur)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"concur":`...), concur...)
	}
	return append(dst, '}'), nil
}

func appendException(dst []byte, e *fault.Exception) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, string(e.Kind))
	dst = append(dst, `,"method":`...)
	dst = appendJSONString(dst, e.Method)
	if e.Msg != "" {
		dst = append(dst, `,"msg":`...)
		dst = appendJSONString(dst, e.Msg)
	}
	if e.Injected {
		dst = append(dst, `,"injected":true`...)
	}
	dst = appendIntField(dst, `,"point":`, e.Point)
	if e.Foreign {
		dst = append(dst, `,"foreign":true`...)
	}
	if e.Stack != "" {
		dst = append(dst, `,"stack":`...)
		dst = appendJSONString(dst, e.Stack)
	}
	return append(dst, '}')
}

// appendIntField appends an omitempty int field: key (with its leading
// comma and colon) and value, or nothing for zero.
func appendIntField(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string exactly as
// encoding/json escapes it: HTML-significant bytes and control bytes as
// \u00XX (with short forms for \b \f \n \r \t), invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped for JSONP safety.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
