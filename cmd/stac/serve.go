package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stac/internal/serve"
	"stac/internal/serve/loadgen"
)

// cmdServe runs the long-running prediction server: an HTTP/JSON front
// end over a hot-reloadable model registry, request batcher and
// admission control. SIGHUP (or POST /admin/reload) hot-reloads the
// model from its paths; SIGINT/SIGTERM drain and exit.
func cmdServe(args []string) error {
	engine, addr, err := serveEngine(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		engine.Close()
		return err
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	return serveUntilSignal(engine, ln, sigs)
}

// serveEngine parses stac serve's flags and returns an engine with the
// model loaded, and the address to listen on.
func serveEngine(args []string) (*serve.Engine, string, error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "", "trained deep-forest model file (required)")
	data := fs.String("data", "", "profiling dataset the model was trained on (required)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxBatch := fs.Int("max-batch", 64, "max predictions coalesced into one model call")
	queue := fs.Int("queue", 1024, "admission queue depth (full queue sheds with 503)")
	rate := fs.Float64("rate", 0, "admission rate limit in predictions/sec (0 = unlimited; excess sheds with 429)")
	burst := fs.Int("burst", 256, "rate-limit burst")
	deadline := fs.Duration("deadline", 50*time.Millisecond, "default per-request deadline")
	cache := fs.Int("cache", 65536, "prediction cache entries per generation (negative disables)")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if err := startObs(); err != nil {
		return nil, "", err
	}
	if *model == "" || *data == "" {
		return nil, "", fmt.Errorf("serve: -model and -data are required")
	}

	engine := serve.NewEngine(serve.Config{
		MaxBatch:        *maxBatch,
		QueueDepth:      *queue,
		RateLimit:       *rate,
		RateBurst:       *burst,
		DefaultDeadline: *deadline,
		CacheSize:       *cache,
	})
	info, err := engine.LoadModel(*model, *data)
	if err != nil {
		engine.Close()
		return nil, "", err
	}
	fmt.Printf("loaded model v%d: %d profile rows, services %s\n",
		info.Version, info.Rows, strings.Join(info.Services, ", "))
	return engine, *addr, nil
}

// serveUntilSignal serves the engine's HTTP front end on ln until a
// signal other than SIGHUP arrives on sigs; each SIGHUP hot-reloads the
// model. It returns once in-flight requests have drained and the engine
// is closed.
func serveUntilSignal(engine *serve.Engine, ln net.Listener, sigs <-chan os.Signal) error {
	httpSrv := &http.Server{Handler: serve.NewServer(engine).Handler()}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				if info, err := engine.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "reload: %v\n", err)
				} else {
					fmt.Printf("reloaded model v%d\n", info.Version)
				}
				continue
			}
			fmt.Printf("%v: draining...\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = httpSrv.Shutdown(ctx)
			cancel()
			engine.Close()
			return
		}
	}()

	fmt.Printf("serving on http://%s (predict, search, admin/reload, metrics, healthz)\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	// Serve returns as soon as Shutdown starts; wait for it to finish.
	<-drained
	return nil
}

// cmdLoadtest drives a serving stack — a running server over HTTP
// (-addr), or an in-process engine built from -model/-data — with the
// loadgen harness and reports achieved QPS and tail latency.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addrF := fs.String("addr", "", "target a running server (e.g. http://127.0.0.1:8080)")
	model := fs.String("model", "", "drive an in-process engine: trained model file")
	data := fs.String("data", "", "drive an in-process engine: profiling dataset file")
	mode := fs.String("mode", "closed", "loop discipline: closed (capacity) or open (fixed offered load)")
	workers := fs.Int("workers", 4, "closed-loop concurrency / open-loop outstanding bound")
	duration := fs.Duration("duration", 5*time.Second, "measured interval")
	warmup := fs.Duration("warmup", time.Second, "unrecorded warmup interval")
	qps := fs.Float64("qps", 0, "open-loop offered load (required for -mode open)")
	conditions := fs.Int("conditions", 512, "runtime-condition pool size (cacheability knob)")
	deadlineMS := fs.Float64("deadline-ms", 0, "per-request deadline in ms (0 = server default)")
	nocache := fs.Bool("nocache", false, "bypass the prediction cache (cold batched path)")
	seed := fs.Uint64("seed", 1, "random seed for the condition pool and arrivals")
	services := fs.String("services", "", "comma-separated services (default: all the model serves)")
	jsonPath := fs.String("json", "", "write the result as JSON to this path")
	maxBatch := fs.Int("max-batch", 64, "in-process engine: max batch size")
	cache := fs.Int("cache", 65536, "in-process engine: prediction cache entries (negative disables)")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startObs(); err != nil {
		return err
	}

	var target loadgen.Target
	var svcList []string
	switch {
	case *addrF != "":
		t := loadgen.HTTPTarget{BaseURL: *addrF}
		var err error
		if svcList, err = t.Services(); err != nil {
			return err
		}
		target = t
	case *model != "" && *data != "":
		engine := serve.NewEngine(serve.Config{
			MaxBatch: *maxBatch, CacheSize: *cache,
		})
		info, err := engine.LoadModel(*model, *data)
		if err != nil {
			return err
		}
		defer engine.Close()
		svcList = info.Services
		target = loadgen.EngineTarget{Engine: engine}
	default:
		return fmt.Errorf("loadtest: need -addr, or -model and -data")
	}
	if *services != "" {
		svcList = strings.Split(*services, ",")
	}

	cfg := loadgen.Config{
		Mode:       *mode,
		Workers:    *workers,
		Duration:   *duration,
		Warmup:     *warmup,
		TargetQPS:  *qps,
		Services:   svcList,
		Conditions: *conditions,
		DeadlineMS: *deadlineMS,
		NoCache:    *nocache,
		Seed:       *seed,
	}
	fmt.Printf("loadtest: %s loop, %d workers, %v measured (+%v warmup), %d conditions over %d services\n",
		cfg.Mode, cfg.Workers, cfg.Duration, cfg.Warmup, cfg.Conditions, len(svcList))
	res, err := loadgen.Run(cfg, target)
	if err != nil {
		return err
	}

	fmt.Printf("achieved %.0f predictions/sec (%d ok / %d total in %.2fs), cache hit %.1f%%\n",
		res.QPS, res.OK, res.Requests, res.Seconds, res.CacheHitRatio*100)
	fmt.Printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  max %.3f\n",
		res.P50MS, res.P95MS, res.P99MS, res.MeanMS, res.MaxMS)
	if res.OfferedQPS > 0 {
		fmt.Printf("offered %.0f qps, %d overruns, %d dropped\n", res.OfferedQPS, res.Overruns, res.Dropped)
	}
	if len(res.Errors) > 0 {
		fmt.Printf("errors: %v\n", res.Errors)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}
