// Command stretchd is the long-running scheduler daemon: it admits job
// submissions over HTTP/JSON, drives the online max-stretch scheduling
// stack (§4.3.2) at every arrival and completion event, and serves
// placement decisions, Prometheus metrics and deterministic checkpoints.
//
//	stretchd [flags]                    serve HTTP (drain on SIGTERM/SIGINT)
//	stretchd -replay trace.csv [flags]  in-process replay; prints events/sec
//	stretchd loadgen [flags]            generate a workload; POST it to a
//	                                    daemon (-addr) and/or write -out CSV;
//	                                    -chaos N supervises its own daemon
//	                                    and kills/restores it N times
//	stretchd logcheck <path>            verify a framed decision log
//
// The platform is generated deterministically from the workload flags
// (-sites, -banks, -avail, -density, -seed), so a loadgen run with the
// same flags drives jobs the daemon's platform can serve.
//
// Crash safety: -declog writes a checksum-framed log (one framed record
// per decision line; see internal/serve), -checkpoint persists atomically
// (temp file + fsync + rename) both on drain and on every POST
// /checkpoint, and -restore truncates the decision log to exactly the
// records the checkpoint attests before resuming — a torn tail from a
// crash mid-write is discarded, and the resumed log is byte-identical to
// an uninterrupted run's.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stretchsched/internal/core"
	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/online"
	"stretchsched/internal/serve"
	"stretchsched/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "loadgen":
			if err := runLoadgen(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "stretchd loadgen:", err)
				os.Exit(1)
			}
			return
		case "logcheck":
			if err := runLogcheck(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "stretchd logcheck:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := runDaemon(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stretchd:", err)
		os.Exit(1)
	}
}

// wlFlags registers the shared workload-shape flags.
func wlFlags(fs *flag.FlagSet) *workload.Config {
	cfg := &workload.Config{}
	fs.IntVar(&cfg.Sites, "sites", 6, "number of sites")
	fs.IntVar(&cfg.Databanks, "banks", 12, "number of databanks")
	fs.Float64Var(&cfg.Availability, "avail", 0.5, "databank availability in (0,1]")
	fs.Float64Var(&cfg.Density, "density", 0.8, "workload density")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed (platform and jobs)")
	fs.IntVar(&cfg.TargetJobs, "jobs", 1000, "expected number of generated jobs")
	return cfg
}

func runDaemon(args []string) error {
	fs := flag.NewFlagSet("stretchd", flag.ExitOnError)
	addr := fs.String("addr", ":9130", "HTTP listen address")
	policy := fs.String("policy", "Online-EGDF", "serving policy (must be a list policy)")
	exact := fs.Bool("exact", false, "exact rational step-2 solves (parametric cuts certified by a rational max-flow)")
	deadline := fs.Duration("deadline", 2*time.Second, "per-request admission deadline")
	recents := fs.Int("recents", 1024, "completed-job ring capacity")
	declog := fs.String("declog", "", "checksum-framed decision log path (empty = discard; verify with 'stretchd logcheck')")
	ckPath := fs.String("checkpoint", "", "persist checkpoints here atomically (on drain and on POST /checkpoint)")
	restore := fs.String("restore", "", "resume from this checkpoint file (recovers -declog to the attested records first)")
	replay := fs.String("replay", "", "replay this trace CSV in-process and exit")
	backlog := fs.Int("backlog", 0, "backlog guard: switch to the fallback policy while more than this many jobs are active (0 = off)")
	fallback := fs.String("fallback", "SWRPT", "backlog guard fallback policy (must be a list policy)")
	wl := wlFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	inst, err := wl.Generate()
	if err != nil {
		return err
	}

	ws := offline.NewWorkspace()
	sched, err := core.New(*policy, core.WithWorkspace(ws))
	if err != nil {
		return err
	}
	if *exact {
		pb, ok := sched.(core.PolicyBacked)
		if !ok {
			return fmt.Errorf("policy %s cannot serve (not a list policy)", *policy)
		}
		e, ok := pb.Policy().(*online.EGDF)
		if !ok {
			return fmt.Errorf("-exact applies to Online-EGDF, not %s", *policy)
		}
		e.Solver.Exact = true
	}

	// The decision log is opened after a possible crash recovery below:
	// on -restore the log is first truncated to exactly the records the
	// checkpoint attests, so a torn tail (or records the crash lost) never
	// pollutes the resumed stream.
	var ck *serve.Checkpoint
	if *restore != "" {
		b, err := os.ReadFile(*restore)
		if err != nil {
			return err
		}
		if ck, err = serve.DecodeCheckpoint(b); err != nil {
			return err
		}
	}

	var logw io.Writer
	var logFlush func() error
	if *declog != "" {
		if ck != nil {
			if _, err := os.Stat(*declog); err == nil {
				if err := serve.RecoverLogFile(*declog, ck.LogRecords); err != nil {
					return fmt.Errorf("recovering decision log: %w", err)
				}
			} else if os.IsNotExist(err) {
				// A fresh empty log under a checkpoint attesting records would
				// diverge from every later attestation; refuse rather than
				// silently invalidate the resumed log.
				if ck.LogRecords > 0 {
					return fmt.Errorf("recovering decision log: %s does not exist but checkpoint %s attests %d records",
						*declog, *restore, ck.LogRecords)
				}
			} else {
				return fmt.Errorf("recovering decision log: %w", err)
			}
		} else if err := os.Remove(*declog); err != nil && !os.IsNotExist(err) {
			return err
		}
		lf, err := serve.OpenLogFile(*declog)
		if err != nil {
			return err
		}
		logw = lf
		logFlush = lf.Close
	}

	cfg := serve.Config{
		Platform:         inst.Platform,
		Scheduler:        sched,
		Workspace:        ws,
		Deadline:         *deadline,
		RecentCap:        *recents,
		DecisionLog:      logw,
		BacklogThreshold: *backlog,
		CheckpointPath:   *ckPath,
	}
	if *backlog > 0 {
		fb, err := core.New(*fallback)
		if err != nil {
			return err
		}
		cfg.Fallback = fb
	}
	var loop *serve.Loop
	if ck != nil {
		loop, err = serve.Restore(cfg, ck)
		if err != nil {
			return err
		}
	} else {
		loop, err = serve.New(cfg)
		if err != nil {
			return err
		}
	}

	if *replay != "" {
		return runReplay(loop, *replay, logFlush)
	}

	srv := &http.Server{Addr: *addr, Handler: loop.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("stretchd: serving %s on %s (policy %s)\n", describe(inst), *addr, sched.Name())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("stretchd: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := loop.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if *ckPath != "" {
		ck, err := loop.Checkpoint()
		if err != nil {
			return err
		}
		if err := ck.WriteFile(*ckPath); err != nil {
			return err
		}
	}
	if logFlush != nil {
		if err := logFlush(); err != nil {
			return fmt.Errorf("flushing decision log: %w", err)
		}
	}
	fmt.Println("stretchd: drained clean")
	return nil
}

// runReplay feeds a trace CSV (release,size,databank[,name]) through the
// loop in-process and prints the sustained event rate.
func runReplay(loop *serve.Loop, path string, logFlush func() error) error {
	rows, err := readTrace(path)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, r := range rows {
		if _, err := loop.Submit(r); err != nil {
			return fmt.Errorf("replaying %s: %w", path, err)
		}
	}
	if err := loop.Drain(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	snap, err := loop.Snapshot()
	if err != nil {
		return err
	}
	if logFlush != nil {
		if err := logFlush(); err != nil {
			return fmt.Errorf("flushing decision log: %w", err)
		}
	}
	rate := float64(snap.Counters.Events) / elapsed.Seconds()
	fmt.Printf("replayed %d jobs, %d events in %v: %.0f events/sec (max stretch %.3g, p99 %.3g)\n",
		snap.Counters.Submitted, snap.Counters.Events, elapsed.Round(time.Millisecond),
		rate, snap.StretchMax, snap.StretchP99)
	return nil
}

func readTrace(path string) ([]serve.SubmitRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	var out []serve.SubmitRequest
	for i, rec := range recs {
		if len(rec) < 3 {
			return nil, fmt.Errorf("%s:%d: want release,size,databank[,name]", path, i+1)
		}
		rel, err1 := strconv.ParseFloat(rec[0], 64)
		size, err2 := strconv.ParseFloat(rec[1], 64)
		bank, err3 := strconv.Atoi(rec[2])
		if err1 != nil || err2 != nil || err3 != nil {
			if i == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("%s:%d: malformed row %v", path, i+1, rec)
		}
		req := serve.SubmitRequest{Release: rel, Size: size, Databank: model.DatabankID(bank)}
		if len(rec) > 3 {
			req.Name = rec[3]
		}
		out = append(out, req)
	}
	return out, nil
}

// runLoadgen generates the seeded workload and drives a daemon with it
// over HTTP (-addr), writes it as a trace CSV (-out), or both. With
// -chaos N it instead spawns and supervises its own daemon, SIGKILLs it
// at N seeded points mid-stream, restores each time from the last
// checkpoint, and verifies the recovered decision log at the end.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("stretchd loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (e.g. http://localhost:9130); empty = no HTTP")
	out := fs.String("out", "", "write the trace CSV here; empty = no file")
	chaos := fs.Int("chaos", 0, "kill and restore a supervised daemon this many times mid-stream (requires -addr; spawns its own daemon there)")
	chaosSeed := fs.Int64("chaosseed", 1, "seed for the chaos kill points")
	daemonExtra := fs.String("daemon", "", "extra flags for the supervised daemon in -chaos mode (space-separated)")
	wl := wlFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && *out == "" {
		return fmt.Errorf("nothing to do: set -addr and/or -out")
	}
	inst, err := wl.Generate()
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeTrace(*out, inst); err != nil {
			return err
		}
		fmt.Printf("wrote %d jobs to %s\n", inst.NumJobs(), *out)
	}
	if *chaos > 0 {
		if *addr == "" {
			return fmt.Errorf("-chaos needs -addr for the supervised daemon")
		}
		return runChaos(*addr, inst, wl, *chaos, *chaosSeed, *daemonExtra)
	}
	if *addr != "" {
		if err := postJobs(*addr, inst); err != nil {
			return err
		}
		fmt.Printf("posted %d jobs to %s\n", inst.NumJobs(), *addr)
	}
	return nil
}

// chaosDaemon supervises one stretchd child for the chaos harness.
type chaosDaemon struct {
	bin    string
	argv   []string
	ckPath string
	cmd    *exec.Cmd
}

func (d *chaosDaemon) start(restore bool) error {
	argv := append([]string(nil), d.argv...)
	if restore {
		argv = append(argv, "-restore", d.ckPath)
	}
	cmd := exec.Command(d.bin, argv...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd = cmd
	return nil
}

func (d *chaosDaemon) kill() {
	_ = d.cmd.Process.Kill()
	_, _ = d.cmd.Process.Wait()
}

func (d *chaosDaemon) shutdown() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	state, err := d.cmd.Process.Wait()
	if err != nil {
		return err
	}
	if !state.Success() {
		return fmt.Errorf("daemon drain exited %v", state)
	}
	return nil
}

// waitReady polls the daemon's /schedule endpoint until it answers.
func waitReady(client *http.Client, base string) error {
	for i := 0; i < 200; i++ {
		resp, err := client.Get(base + "/schedule")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became ready", base)
}

// checkpointNow asks the daemon to snapshot; the daemon persists it
// atomically at its -checkpoint path before responding, so a kill issued
// after a 200 can always be recovered from.
func checkpointNow(client *http.Client, base string) error {
	resp, err := client.Post(base+"/checkpoint", "application/json", nil)
	if err != nil {
		return err
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /checkpoint: %s: %s", resp.Status, rb)
	}
	return nil
}

// runChaos is the kill/restore supervision loop: spawn a daemon with a
// framed decision log and atomic checkpointing, post the workload, and at
// each seeded kill point checkpoint, SIGKILL, and respawn with -restore.
// Because every kill follows a synced checkpoint, the final drained log
// must scan clean — torn tails are the recovery path's job, exercised by
// the serve package's differential test.
func runChaos(base string, inst *model.Instance, wl *workload.Config, n int, seed int64, extra string) error {
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return fmt.Errorf("-addr %q is not a base URL (want e.g. http://127.0.0.1:9130)", base)
	}
	dir, err := os.MkdirTemp("", "stretchd-chaos-")
	if err != nil {
		return err
	}
	declog := dir + "/decisions.log"
	ckPath := dir + "/checkpoint.json"

	bin, err := os.Executable()
	if err != nil {
		return err
	}
	argv := []string{
		"-addr", u.Host,
		"-declog", declog,
		"-checkpoint", ckPath,
		"-sites", strconv.Itoa(wl.Sites),
		"-banks", strconv.Itoa(wl.Databanks),
		"-avail", strconv.FormatFloat(wl.Availability, 'g', -1, 64),
		"-density", strconv.FormatFloat(wl.Density, 'g', -1, 64),
		"-seed", strconv.FormatInt(wl.Seed, 10),
		"-jobs", strconv.Itoa(wl.TargetJobs),
	}
	argv = append(argv, strings.Fields(extra)...)
	d := &chaosDaemon{bin: bin, argv: argv, ckPath: ckPath}
	if err := d.start(false); err != nil {
		return err
	}

	client := &http.Client{Timeout: 10 * time.Second}
	if err := waitReady(client, base); err != nil {
		d.kill()
		return err
	}
	kills := fault.CrashIndices(seed, n, len(inst.Jobs))
	ki := 0
	crashed := 0
	for i, j := range inst.Jobs {
		if ki < len(kills) && i == kills[ki] {
			ki++
			if err := checkpointNow(client, base); err != nil {
				d.kill()
				return err
			}
			d.kill()
			crashed++
			fmt.Printf("chaos: killed daemon before job %d/%d, restoring\n", i, len(inst.Jobs))
			if err := d.start(true); err != nil {
				return err
			}
			if err := waitReady(client, base); err != nil {
				d.kill()
				return err
			}
		}
		if err := postOneJob(client, base, j); err != nil {
			d.kill()
			return fmt.Errorf("posting job %d: %w", i, err)
		}
	}
	if err := d.shutdown(); err != nil {
		return err
	}

	b, err := os.ReadFile(declog)
	if err != nil {
		return err
	}
	recs, good := serve.ScanLog(b)
	if good != len(b) {
		return fmt.Errorf("decision log %s: %d trailing bytes torn or corrupt after %d records", declog, len(b)-good, recs)
	}
	fmt.Printf("chaos: posted %d jobs across %d crashes; decision log %s holds %d intact records (%d bytes)\n",
		inst.NumJobs(), crashed, declog, recs, len(b))
	return nil
}

// runLogcheck verifies a framed decision log: every record's checksum
// must hold and no torn tail may follow the intact prefix.
func runLogcheck(args []string) error {
	fs := flag.NewFlagSet("stretchd logcheck", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stretchd logcheck <path>")
	}
	path := fs.Arg(0)
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, good := serve.ScanLog(b)
	if good != len(b) {
		return fmt.Errorf("%s: %d intact records (%d bytes), then %d torn or corrupt trailing bytes",
			path, recs, good, len(b)-good)
	}
	if _, _, err := serve.ReadLogPayloads(b); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Printf("%s: %d records, %d bytes, all frames intact\n", path, recs, len(b))
	return nil
}

func writeTrace(path string, inst *model.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	for _, j := range inst.Jobs {
		rec := []string{
			strconv.FormatFloat(j.Release, 'g', -1, 64),
			strconv.FormatFloat(j.Size, 'g', -1, 64),
			strconv.Itoa(int(j.Databank)),
			j.Name,
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func postJobs(base string, inst *model.Instance) error {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, j := range inst.Jobs {
		if err := postOneJob(client, base, j); err != nil {
			return err
		}
	}
	return nil
}

func postOneJob(client *http.Client, base string, j model.Job) error {
	body, err := json.Marshal(map[string]any{
		"name": j.Name, "size": j.Size, "databank": int(j.Databank), "release": j.Release,
	})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /jobs: %s: %s", resp.Status, rb)
	}
	return nil
}

func describe(inst *model.Instance) string {
	return fmt.Sprintf("%d sites / %d banks", inst.Platform.NumMachines(), inst.Platform.NumDatabanks())
}
