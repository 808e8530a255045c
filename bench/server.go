package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
	"tlsage/internal/service"
)

// serveConfig is the part of `tlstrend serve`'s flag set the workloads use;
// everything else keeps the command's defaults.
type serveConfig struct {
	TCP          bool   // -tcp: also listen for raw TCP ingest
	Out          string // -out: tee ingested records into this TSV log
	SnapDir      string // -snapshot-dir: durable snapshots and crash recovery
	Studies      string // -studies: comma-separated ids; "" keeps "notary"
	Union        string // -union: also host the union of every study
	Upstream     string // -upstream: edge mode, push deltas to this study URL
	PushSource   string // -push-source
	PushInterval time.Duration
}

func (c serveConfig) args() []string {
	a := []string{"serve", "-http", "127.0.0.1:0"}
	if c.TCP {
		a = append(a, "-tcp", "127.0.0.1:0")
	}
	if c.Out != "" {
		a = append(a, "-out", c.Out)
	}
	if c.SnapDir != "" {
		a = append(a, "-snapshot-dir", c.SnapDir)
	}
	if c.Studies != "" {
		a = append(a, "-studies", c.Studies)
	}
	if c.Union != "" {
		a = append(a, "-union", c.Union)
	}
	if c.Upstream != "" {
		a = append(a, "-upstream", c.Upstream, "-push-source", c.PushSource,
			"-push-interval", c.PushInterval.String())
	}
	return a
}

// host is one running server, either a real `tlstrend serve` process (the
// end-to-end runs) or the same assembly hosted in this process (the traced
// run).
type host interface {
	HTTP() string // base URL
	TCP() string  // raw ingest address, "" without -tcp
	// Kill stops the server the way SIGKILL does: nothing is flushed, no
	// final snapshot is written.
	Kill()
	// Close stops the server the cheapest way that leaves nothing running
	// in this process: a real process is killed, an in-process one shuts
	// down so its goroutines end.
	Close()
	// CPUSeconds is the user+system CPU time the server has used so far.
	CPUSeconds() float64
	PeakRSSMB() float64
	// Stderr is the tail of what the server logged, for failure reports.
	Stderr() string
}

// spawner starts a server for a workload.
type spawner func(cfg serveConfig) (host, error)

// --- real process ---

// startTimeout bounds exec → listening; recovery of a large log is the slow
// case and stays well under it.
const startTimeout = 60 * time.Second

type procHost struct {
	cmd       *exec.Cmd
	http, tcp string
	exited    chan struct{}
	lastCPU   float64 // read just before the process is stopped

	mu  sync.Mutex
	log []byte
}

// procs tracks every live child so no exit path leaves one behind.
var procs = struct {
	sync.Mutex
	live map[*procHost]bool
}{live: map[*procHost]bool{}}

// killAllProcs is the last-resort sweep main runs on every exit path.
func killAllProcs() {
	procs.Lock()
	live := make([]*procHost, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.Kill()
	}
}

func spawnProc(bin string, cfg serveConfig) (host, error) {
	cmd := exec.Command(bin, cfg.args()...)
	setDeathSignal(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &procHost{cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	procs.Lock()
	procs.live[p] = true
	procs.Unlock()

	// ready carries the two listen addresses as the server announces them.
	ready := make(chan [2]string, 1)
	go func() {
		defer close(p.exited)
		var addrs [2]string
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.appendLog(line)
			if a, ok := addrAfter(line, "on http://"); ok {
				addrs[0] = "http://" + a
			}
			if a, ok := addrAfter(line, "on tcp://"); ok {
				addrs[1] = a
			}
			if !sent && addrs[0] != "" && (!cfg.TCP || addrs[1] != "") {
				sent = true
				ready <- addrs
			}
		}
		_ = cmd.Wait()
		procs.Lock()
		delete(procs.live, p)
		procs.Unlock()
	}()
	select {
	case a := <-ready:
		p.http, p.tcp = a[0], a[1]
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("tlstrend serve exited before listening:\n%s", p.Stderr())
	case <-time.After(startTimeout):
		p.Kill()
		return nil, fmt.Errorf("tlstrend serve did not listen within %v:\n%s", startTimeout, p.Stderr())
	}
}

// addrAfter extracts the host:port that follows marker in a log line.
func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

func (p *procHost) appendLog(line string) {
	const keep = 16 << 10
	p.mu.Lock()
	p.log = append(append(p.log, line...), '\n')
	if len(p.log) > keep {
		p.log = p.log[len(p.log)-keep:]
	}
	p.mu.Unlock()
}

func (p *procHost) HTTP() string { return p.http }
func (p *procHost) TCP() string  { return p.tcp }

func (p *procHost) Stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return string(p.log)
}

// keepCPU remembers the CPU counters while /proc still has them, so a
// workload can read a server's total after stopping it.
func (p *procHost) keepCPU() {
	if cpu, ok := procCPU(p.cmd.Process.Pid); ok {
		p.lastCPU = cpu
	}
}

func (p *procHost) Kill() {
	p.keepCPU()
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (p *procHost) Close() { p.Kill() }

// clockTick is USER_HZ, the unit of the CPU counters in /proc/<pid>/stat; it
// is 100 on every Linux ABI.
const clockTick = 100

// CPUSeconds reads utime+stime from /proc/<pid>/stat, or the last value seen
// once the process is gone.
func (p *procHost) CPUSeconds() float64 {
	if cpu, ok := procCPU(p.cmd.Process.Pid); ok {
		return cpu
	}
	return p.lastCPU
}

func procCPU(pid int) (float64, bool) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, false
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return (utime + stime) / clockTick, true
}

func (p *procHost) PeakRSSMB() float64 { return procPeakRSSMB(p.cmd.Process.Pid) }

// procPeakRSSMB reads VmHWM, the resident-set high-water mark.
func procPeakRSSMB(pid int) float64 {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPUSeconds is this process's own user+system CPU time.
func selfCPUSeconds() float64 {
	cpu, _ := procCPU(os.Getpid())
	return cpu
}

// --- in-process ---

// hooks are the observation points the traced run threads into the
// in-process assembly; any may be nil.
type hooks struct {
	handler func(http.Handler) http.Handler
	sink    func(notary.Sink) notary.Sink
	shard   func(*notary.Aggregate)
}

type inprocHost struct {
	rt      *service.Router
	hs      *http.Server
	httpLn  net.Listener
	tcpLn   net.Listener
	logFile *os.File
	served  sync.WaitGroup
}

// The serve command's defaults, repeated here because the in-process host is
// assembled from the constructors cmdServe uses, not from its flag set.
const (
	serveMaxInFlight  = 64
	serveCacheEntries = 1024
	serveCacheBytes   = 8 << 20
	serveSnapEvery    = 50000
)

// startInproc mirrors cmdServe: recover, compact, build the pusher, reopen
// the log, mount the studies and the union, listen. Two deliberate
// differences: the snapshot timer is off (a Kill cannot stop the manager's
// goroutine, and an abandoned timer must not write into a directory the next
// incarnation owns), and an edge has no log-replay rebase hook because it is
// never restarted here.
func startInproc(cfg serveConfig, hk hooks) (host, error) {
	cache := analysis.NewQueryCache(serveCacheEntries, serveCacheBytes)
	defaultStudy := core.NewLiveStudy()
	var recovery service.RecoveryInfo
	if cfg.SnapDir != "" || cfg.Out != "" {
		st, info, err := service.RecoverStudy(cfg.SnapDir, cfg.Out, func(string, ...any) {})
		if err != nil {
			return nil, fmt.Errorf("recovering previous state: %w", err)
		}
		defaultStudy, recovery = st, info
		if cfg.SnapDir != "" && info.Records() > 0 {
			if _, _, err := service.WriteStudySnapshot(cfg.SnapDir, st, service.DefaultSnapshotKeep); err != nil {
				return nil, fmt.Errorf("compacting recovered state: %w", err)
			}
		}
	}
	ids := []string{"notary"}
	if cfg.Studies != "" {
		ids = strings.Split(cfg.Studies, ",")
	}
	var pusher *federation.Pusher
	if cfg.Upstream != "" {
		statePath := ""
		if cfg.SnapDir != "" {
			statePath = filepath.Join(cfg.SnapDir, "shipped.gen")
		}
		var err error
		pusher, err = federation.NewPusher(federation.PusherOptions{
			Source:    cfg.PushSource,
			Upstream:  cfg.Upstream,
			Interval:  cfg.PushInterval,
			StatePath: statePath,
		})
		if err != nil {
			return nil, err
		}
	}
	h := &inprocHost{rt: service.NewRouter()}
	fail := func(err error) (host, error) {
		_ = h.rt.Close()
		if h.logFile != nil {
			h.logFile.Close()
		}
		return nil, err
	}
	var first *service.Server
	for i, id := range ids {
		opts := []service.Option{
			service.WithQueueBound(service.DefaultQueueBound),
			service.WithMaxInFlight(serveMaxInFlight),
			service.WithQueryCache(cache, id),
		}
		study := core.NewLiveStudy()
		if i == 0 {
			study = defaultStudy
			if pusher != nil {
				opts = append(opts, service.WithPusher(pusher))
			}
			if hk.shard != nil {
				opts = append(opts, service.WithShardObserver(hk.shard))
			}
			if cfg.Out != "" {
				_, _, gen, err := defaultStudy.Counts()
				if err != nil {
					return fail(err)
				}
				f, err := service.OpenIngestLog(cfg.Out, gen, cfg.SnapDir != "", recovery.TornLine)
				if err != nil {
					return fail(err)
				}
				h.logFile = f
				var sink notary.Sink = notary.NewLogWriter(f)
				if hk.sink != nil {
					sink = hk.sink(sink)
				}
				opts = append(opts, service.WithLogSink(sink))
			}
			if cfg.SnapDir != "" {
				opts = append(opts, service.WithDurability(service.DurabilityOptions{
					Dir:          cfg.SnapDir,
					EveryRecords: serveSnapEvery,
					Logf:         func(string, ...any) {},
				}))
			}
		}
		s := service.NewServer(study, opts...)
		if err := h.rt.Add(id, s); err != nil {
			return fail(err)
		}
		if i == 0 {
			first = s
		}
	}
	if cfg.Union != "" {
		us := service.NewServer(core.NewLiveStudy(),
			service.WithMaxInFlight(serveMaxInFlight), service.WithQueryCache(cache, cfg.Union))
		if err := h.rt.Union(cfg.Union, us, h.rt.IDs()...); err != nil {
			return fail(err)
		}
	}
	var err error
	if h.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	handler := h.rt.Handler()
	if hk.handler != nil {
		handler = hk.handler(handler)
	}
	h.hs = &http.Server{Handler: handler}
	h.served.Add(1)
	go func() {
		defer h.served.Done()
		_ = h.hs.Serve(h.httpLn) // returns once Kill or Close closes the listener
	}()
	if cfg.TCP {
		if h.tcpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			h.Kill()
			return nil, err
		}
		h.served.Add(1)
		go func() {
			defer h.served.Done()
			_ = first.ServeTCP(h.tcpLn)
		}()
	}
	return h, nil
}

func (h *inprocHost) HTTP() string { return "http://" + h.httpLn.Addr().String() }

func (h *inprocHost) TCP() string {
	if h.tcpLn == nil {
		return ""
	}
	return h.tcpLn.Addr().String()
}

// Kill abandons the server: listeners close, the log file closes with its
// buffer unflushed, and no server Close runs, so no final snapshot appears.
// The merge loop's goroutine stays parked on its empty queue.
func (h *inprocHost) Kill() {
	_ = h.hs.Close()
	if h.tcpLn != nil {
		_ = h.tcpLn.Close()
	}
	if h.logFile != nil {
		_ = h.logFile.Close()
	}
	h.served.Wait()
}

// Close shuts down the way cmdServe does on SIGTERM. Its errors are dropped:
// the session is over and everything it wrote is about to be deleted.
func (h *inprocHost) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx)
	_ = h.rt.Close()
	if h.logFile != nil {
		_ = h.logFile.Close()
	}
	h.served.Wait()
}

// CPUSeconds cannot separate the hosted server from the harness; traced runs
// report the whole process.
func (h *inprocHost) CPUSeconds() float64 { return selfCPUSeconds() }
func (h *inprocHost) PeakRSSMB() float64  { return procPeakRSSMB(os.Getpid()) }
func (h *inprocHost) Stderr() string      { return "" }
