// Chunk framing: the wire form runs travel in between a faserve
// coordinator and its faworker executors. A chunk is a self-delimiting
// batch of journal run lines — a count-bearing header line followed by
// exactly that many run lines — so the receiver can tell a complete
// shipment from one truncated by a dying worker or a cut connection: a
// torn chunk fails to decode instead of silently importing a prefix.
// Chunk run lines come from the same encoder (appendRunLine) the journal
// and the final log use, which is what keeps a shipped run
// byte-equivalent to a locally journaled one.
package replog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"failatomic/internal/inject"
)

// ChunkFormatVersion identifies the chunk framing.
const ChunkFormatVersion = "failatomic-chunk/1"

// chunkHeader is the chunk's first line. Runs is the exact number of run
// lines that follow; a short read is detectable by count.
type chunkHeader struct {
	Format string `json:"format"`
	Runs   int    `json:"runs"`
}

// EncodeChunk frames runs as one chunk on w, one write per line.
func EncodeChunk(w io.Writer, runs []inject.Run) error {
	if err := json.NewEncoder(w).Encode(chunkHeader{Format: ChunkFormatVersion, Runs: len(runs)}); err != nil {
		return fmt.Errorf("replog: chunk header: %w", err)
	}
	if i, err := writeRunLines(w, runs); err != nil {
		return fmt.Errorf("replog: chunk run %s: %w", runs[i].Key(), err)
	}
	return nil
}

// EncodeChunkBytes frames runs as one in-memory chunk, sorted by run key
// — strategy first, then point, then argument — so the same run set
// always encodes to the same bytes (the coordinator uses this for the
// resume prefix it hands a worker). A default-strategy-only set orders
// purely by injection point, exactly as before the strategy coordinate
// existed.
func EncodeChunkBytes(runs map[inject.RunKey]inject.Run) ([]byte, error) {
	keys := make([]inject.RunKey, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	ordered := make([]inject.Run, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, runs[k])
	}
	var buf bytes.Buffer
	if err := EncodeChunk(&buf, ordered); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeChunk reads one complete chunk from r. It fails on an unknown
// format, a malformed line, or a run count short of the header's — the
// torn-shipment case — so the caller either imports the whole chunk or
// none of it.
func DecodeChunk(r io.Reader) ([]inject.Run, error) {
	br := bufio.NewReader(r)
	hdrLine, err := readChunkLine(br)
	if err != nil {
		return nil, fmt.Errorf("replog: chunk header: %w", err)
	}
	var hdr chunkHeader
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return nil, fmt.Errorf("replog: chunk header: %w", err)
	}
	if hdr.Format != ChunkFormatVersion {
		return nil, fmt.Errorf("replog: chunk format %q is not %s", hdr.Format, ChunkFormatVersion)
	}
	if hdr.Runs < 0 {
		return nil, fmt.Errorf("replog: chunk declares %d runs", hdr.Runs)
	}
	// The header is untrusted (a worker upload): the slice grows as lines
	// arrive instead of being sized by the declared count.
	runs := []inject.Run{}
	for i := 0; i < hdr.Runs; i++ {
		line, err := readChunkLine(br)
		if err != nil {
			return nil, fmt.Errorf("replog: chunk truncated at run %d of %d: %w", i+1, hdr.Runs, err)
		}
		var rl runLine
		if err := json.Unmarshal(line, &rl); err != nil {
			return nil, fmt.Errorf("replog: chunk run %d of %d: %w", i+1, hdr.Runs, err)
		}
		runs = append(runs, runFromLine(rl))
	}
	return runs, nil
}

// DecodeChunkRuns decodes a chunk into a run-key-keyed map, first
// occurrence winning — the same rule ResumeJournal applies — ready to use
// as inject.Options.Completed.
func DecodeChunkRuns(data []byte) (map[inject.RunKey]inject.Run, error) {
	runs, err := DecodeChunk(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	m := make(map[inject.RunKey]inject.Run, len(runs))
	for _, run := range runs {
		if _, seen := m[run.Key()]; !seen {
			m[run.Key()] = run
		}
	}
	return m, nil
}

// readChunkLine returns one newline-terminated line. A line missing its
// terminator is a truncation, reported as io.ErrUnexpectedEOF.
func readChunkLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err == io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}
