// The pipeline example mirrors the paper's C++ evaluation setting: a
// Self*-style data-flow pipeline (parser stage feeding a bounded queue)
// whose components must stay consistent across failures so the pipeline
// can skip bad records and keep going.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"failatomic"
)

// Method handles of the instrumented methods below.
var (
	mParserStageParseBatch = failatomic.Method("ParserStage.ParseBatch")
	mParserStageparseOne   = failatomic.Method("ParserStage.parseOne")
	mBoundedQueuePushAll   = failatomic.Method("BoundedQueue.PushAll")
	mBoundedQueuePop       = failatomic.Method("BoundedQueue.Pop")
)

// Record is one parsed input line.
type Record struct {
	Key   string
	Value string
}

// ParserStage parses "key=value" lines and tracks throughput. Parse
// commits its counters as it goes — failure non-atomic in the face of bad
// input *after* a partial batch.
type ParserStage struct {
	Lines   int
	BadSeen int
}

// ParseBatch parses a batch of lines; a malformed line aborts the batch
// mid-way, leaving Lines counting records that never reached the queue.
func (p *ParserStage) ParseBatch(lines []string) []*Record {
	defer mParserStageParseBatch.Enter(p)()
	out := make([]*Record, 0, len(lines))
	for _, line := range lines {
		out = append(out, p.parseOne(line))
		p.Lines++
	}
	return out
}

func (p *ParserStage) parseOne(line string) *Record {
	defer mParserStageparseOne.Enter(p)()
	key, value, ok := strings.Cut(line, "=")
	if !ok || key == "" {
		failatomic.Throw(failatomic.ParseError, "ParserStage.parseOne", "bad line %q", line)
	}
	return &Record{Key: key, Value: value}
}

// BoundedQueue buffers records between stages, validate-first style.
type BoundedQueue struct {
	Items []*Record
	Max   int
}

// PushAll enqueues a batch; overflow mid-batch strands earlier records.
func (q *BoundedQueue) PushAll(records []*Record) {
	defer mBoundedQueuePushAll.Enter(q)()
	for _, r := range records {
		if len(q.Items) >= q.Max {
			failatomic.Throw(failatomic.CapacityExceeded, "BoundedQueue.PushAll",
				"queue full at %d", q.Max)
		}
		q.Items = append(q.Items, r)
	}
}

// Pop removes the oldest record.
func (q *BoundedQueue) Pop() *Record {
	defer mBoundedQueuePop.Enter(q)()
	if len(q.Items) == 0 {
		failatomic.Throw(failatomic.NoSuchElement, "BoundedQueue.Pop", "empty queue")
	}
	r := q.Items[0]
	q.Items = q.Items[1:]
	return r
}

func registry() *failatomic.Registry {
	return failatomic.NewRegistry().
		Method("ParserStage", "ParseBatch", failatomic.ParseError).
		Method("ParserStage", "parseOne", failatomic.ParseError).
		Method("BoundedQueue", "PushAll", failatomic.CapacityExceeded).
		Method("BoundedQueue", "Pop", failatomic.NoSuchElement)
}

func main() {
	// Detection: which pipeline methods would corrupt state on failure?
	result, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name:     "pipeline",
		Registry: registry(),
		Run: func() {
			parser := &ParserStage{}
			queue := &BoundedQueue{Max: 8}
			records := parser.ParseBatch([]string{"a=1", "b=2"})
			queue.PushAll(records)
			_ = queue.Pop()
		},
	}, failatomic.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range result.Names() {
		fmt.Printf("%-26s %v\n", name, result.Methods[name].Classification)
	}

	// Masking: make the batch operations transactional, then drive the
	// pipeline over mixed input — bad batches are skipped wholesale, good
	// batches flow, and the stage counters stay exact.
	protection, err := failatomic.Protect(result.NonAtomicMethods(), failatomic.ProtectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer protection.Close()

	parser := &ParserStage{}
	queue := &BoundedQueue{Max: 8}
	batches := [][]string{
		{"host=web1", "port=80"},
		{"host=web2", "oops-no-equals"}, // fails mid-batch
		{"host=web3", "port=81"},
	}
	for i, batch := range batches {
		func() {
			defer func() {
				if r := recover(); r != nil {
					parser.BadSeen++
					fmt.Printf("batch %d skipped: %v\n", i, failatomic.ExceptionFrom(r))
				}
			}()
			queue.PushAll(parser.ParseBatch(batch))
		}()
	}
	fmt.Printf("\nqueued %d records from %d good batches; Lines=%d (exact), BadSeen=%d\n",
		len(queue.Items), 2, parser.Lines, parser.BadSeen)
	if parser.Lines != len(queue.Items) {
		fmt.Println("INCONSISTENT: parser count disagrees with queue depth")
	} else {
		fmt.Println("consistent: parser count matches queue depth")
	}
	fmt.Printf("rollbacks performed: %d\n", protection.Rollbacks())
}
