// Command pacli is a small interactive / batch KV shell over a real-time
// PA-Tree, for poking at the library by hand:
//
//	$ pacli
//	> put 42 hello
//	> get 42
//	hello
//	> scan 0 100
//	42 hello
//	> stats
//	...
//
// Shell commands: put <key> <value> | get <key> | del <key> | scan <lo>
// <hi> [limit] | sync | stats | metrics | help | quit. Reads stdin, so
// it also works as a batch processor: `pacli < script.txt`.
//
// Two observability subcommands run a self-contained mixed workload
// instead of the shell:
//
//	pacli stats [-n ops]            run the workload, print the full
//	                                metrics snapshot (stage latency
//	                                breakdown, CPU categories, probe
//	                                model accuracy)
//	pacli stats -remote host:7071   instead of a local workload, fetch
//	                                and print /statsz from a running
//	                                paserve admin endpoint
//	pacli trace [-n ops] [-o file]  same workload with the lifecycle
//	                                tracer on; exports Chrome trace-event
//	                                JSON for Perfetto / chrome://tracing
//
// For profiling a running server (rather than this process), paserve's
// admin endpoint also serves Go pprof at /debug/pprof/ — see `help` in
// the shell.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/metrics"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats":
			os.Exit(runStats(os.Args[2:]))
		case "trace":
			os.Exit(runTrace(os.Args[2:]))
		}
	}
	runShell()
}

// demoWorkload drives a mixed batched workload through db: bulk load,
// batched point reads, updates, scans and deletes, then a sync. It
// exercises every pipeline stage (inbox, ready queue, latches, reads,
// write-backs) so the exported metrics and traces have something to say.
func demoWorkload(db *patree.DB, n int) error {
	const batch = 128
	val := []byte("pacli-demo-value-0123456789abcdef")
	for lo := 0; lo < n; lo += batch {
		b := db.NewBatch()
		for k := lo; k < lo+batch && k < n; k++ {
			b.Put(uint64(k), val)
		}
		if err := b.Commit(); err != nil {
			return err
		}
		b.Wait()
		b.Release()
	}
	for lo := 0; lo < n; lo += batch {
		b := db.NewBatch()
		for k := lo; k < lo+batch && k < n; k++ {
			switch k % 8 {
			case 0:
				b.Put(uint64(k), val)
			case 1:
				b.Delete(uint64(k))
			case 2:
				b.Scan(uint64(k), uint64(k+16), 8)
			default:
				b.Get(uint64(k))
			}
		}
		if err := b.Commit(); err != nil {
			return err
		}
		b.Wait()
		b.Release()
	}
	return db.Sync()
}

func runStats(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	n := fs.Int("n", 1<<16, "operations to run before snapshotting")
	remote := fs.String("remote", "", "paserve admin address or URL to read /statsz from")
	fs.Parse(args)
	if *remote != "" {
		return remoteStats(*remote)
	}
	db, err := patree.Open(patree.Options{Persistence: patree.Weak})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		return 1
	}
	defer db.Close()
	if err := demoWorkload(db, *n); err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		return 1
	}
	fmt.Print(patree.FormatMetrics(db.Metrics()))
	return 0
}

// remoteStats fetches /statsz from a running paserve admin endpoint and
// prints the JSON document. addr may be host:port or a full URL; a bare
// address or URL without a path gets /statsz appended.
func remoteStats(addr string) int {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(strings.TrimPrefix(url, "http://"), "/") {
		url += "/statsz"
	}
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fetch:", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "read:", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "%s: %s\n%s", url, resp.Status, body)
		return 1
	}
	os.Stdout.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		fmt.Println()
	}
	return 0
}

func runTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 1<<14, "operations to run while tracing")
	out := fs.String("o", "patree-trace.json", "output file for Chrome trace JSON")
	fs.Parse(args)
	db, err := patree.Open(patree.Options{Persistence: patree.Weak, Trace: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		return 1
	}
	defer db.Close()
	if err := demoWorkload(db, *n); err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		return 1
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "create:", err)
		return 1
	}
	if err := db.WriteTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		f.Close()
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		return 1
	}
	m := db.Metrics()
	fmt.Printf("wrote %s (%d events emitted); open in ui.perfetto.dev or chrome://tracing\n",
		*out, m.TraceEvents)
	return 0
}

func runShell() {
	db, err := patree.Open(patree.Options{Persistence: patree.Weak})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()

	sc := bufio.NewScanner(os.Stdin)
	interactive := isTTY()
	if interactive {
		fmt.Println("pa-tree shell; 'help' for commands")
	}
	for {
		if interactive {
			fmt.Print("> ")
		}
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("put <key> <value> | get <key> | del <key> | scan <lo> <hi> [limit] | sync | stats | metrics | quit")
			fmt.Println("profiling a live server: paserve's admin endpoint serves Go pprof at http://<admin>/debug/pprof/ (CPU, heap, block)")
		case "put":
			if len(fields) < 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			k, err := parseKey(fields[1])
			if err != nil {
				fmt.Println(err)
				continue
			}
			if err := db.Put(k, []byte(strings.Join(fields[2:], " "))); err != nil {
				fmt.Println("error:", err)
			}
		case "get":
			k, err := parseKey(fields[1])
			if err != nil {
				fmt.Println(err)
				continue
			}
			v, ok, err := db.Get(k)
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case !ok:
				fmt.Println("(not found)")
			default:
				fmt.Println(string(v))
			}
		case "del":
			k, err := parseKey(fields[1])
			if err != nil {
				fmt.Println(err)
				continue
			}
			ok, err := db.Delete(k)
			if err != nil {
				fmt.Println("error:", err)
			} else if !ok {
				fmt.Println("(not found)")
			}
		case "scan":
			if len(fields) < 3 {
				fmt.Println("usage: scan <lo> <hi> [limit]")
				continue
			}
			lo, err1 := parseKey(fields[1])
			hi, err2 := parseKey(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Println("bad bounds")
				continue
			}
			limit := 0
			if len(fields) > 3 {
				limit, _ = strconv.Atoi(fields[3])
			}
			pairs, err := db.Scan(lo, hi, limit)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, kv := range pairs {
				fmt.Printf("%d %s\n", kv.Key, kv.Value)
			}
		case "sync":
			if err := db.Sync(); err != nil {
				fmt.Println("error:", err)
			}
		case "stats":
			metrics.WriteText(os.Stdout, db.Stats())
		case "metrics":
			fmt.Print(patree.FormatMetrics(db.Metrics()))
		default:
			fmt.Printf("unknown command %q; try help\n", fields[0])
		}
	}
}

func parseKey(s string) (uint64, error) {
	k, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad key %q", s)
	}
	return k, nil
}

func isTTY() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
