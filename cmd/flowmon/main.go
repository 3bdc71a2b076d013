// Command flowmon runs a managed flow and renders Flower's
// all-in-one-place monitoring view (§3.4): one consolidated dashboard over
// every platform of the flow, optionally exporting the full history as
// CSV for offline plotting.
//
// Usage:
//
//	flowmon [-spec flow.json] [-for 1h] [-window 30m] [-csv out.csv]
//	flowmon -url http://host:8080 -flow web       render a live remote flow
//	flowmon -url http://host:8080 -flow web -follow   re-render on every advance
//
// With -url, flowmon fetches the named flow's consolidated snapshot from a
// running flowerd control plane through the repro/client SDK and renders
// it, so any flow of a multi-flow daemon can be watched from another
// machine. Adding -follow subscribes to the flow's watch stream instead of
// polling: the dashboard re-renders whenever the flow actually advances (a
// pacer tick, a manual advance), throttled to at most one render per
// -refresh interval, and survives daemon restarts through the SDK's
// auto-reconnect.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	apiv1 "repro/api/v1"
	"repro/client"
	"repro/internal/monitor"
	"repro/internal/sim"

	flower "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowmon: ")

	specPath := flag.String("spec", "", "path to a JSON flow definition (default: built-in click-stream flow)")
	duration := flag.Duration("for", time.Hour, "simulated duration to run before snapshotting")
	window := flag.Duration("window", 30*time.Minute, "dashboard window")
	seed := flag.Int64("seed", 1, "simulation seed")
	csvPath := flag.String("csv", "", "export the metric history to this CSV file")
	baseURL := flag.String("url", "", "render a flow served by this flowerd control plane instead of running a simulation")
	flowID := flag.String("flow", "", "with -url: the remote flow id")
	follow := flag.Bool("follow", false, "with -url: stream the flow's watch events and re-render on every advance")
	refresh := flag.Duration("refresh", time.Second, "with -follow: minimum interval between renders")
	flag.Parse()

	if *baseURL != "" {
		if *flowID == "" {
			log.Fatal("-flow is required with -url")
		}
		c := client.New(*baseURL)
		ctx := context.Background()
		render := func() error {
			snap, err := c.Snapshot(ctx, *flowID, *window)
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			if *follow {
				fmt.Print("\033[H\033[2J") // clear for the live view
			}
			fmt.Printf("flow %q on %s\n\n", *flowID, *baseURL)
			if err := monitor.Render(os.Stdout, snap); err != nil {
				return fmt.Errorf("dashboard: %w", err)
			}
			return nil
		}
		if err := render(); err != nil && !*follow {
			log.Fatal(err)
		} else if err != nil {
			log.Printf("%v (retrying on next event)", err)
		}
		if !*follow {
			return
		}
		// Follow mode: one watch stream instead of snapshot polling. Each
		// flow.advanced event invalidates the view; renders are throttled
		// so a fast pacer does not melt the terminal.
		w := c.WatchFlow(*flowID, client.WatchOptions{
			Types: []string{apiv1.EventFlowAdvanced, apiv1.EventFlowDeleted},
		})
		defer w.Close()
		last := time.Now()
		for {
			ev, err := w.Next(ctx)
			if err != nil {
				log.Fatalf("watch: %v", err)
			}
			if ev.Type == apiv1.EventFlowDeleted {
				fmt.Printf("\nflow %q was deleted; exiting\n", *flowID)
				return
			}
			// Throttle by waiting out the remainder of the interval rather
			// than dropping the event: the render after a burst's LAST
			// advance must happen, or the terminal would stay stale until
			// some future event arrived.
			if since := time.Since(last); since < *refresh {
				time.Sleep(*refresh - since)
			}
			last = time.Now()
			// A transient snapshot failure (daemon restarting mid-stream)
			// must not kill the live view: the watch iterator is already
			// reconnecting, so just try again on the next event.
			if err := render(); err != nil {
				log.Printf("%v (retrying on next event)", err)
			}
		}
	}

	var spec flower.Spec
	var err error
	if *specPath != "" {
		data, readErr := os.ReadFile(*specPath)
		if readErr != nil {
			log.Fatalf("read spec: %v", readErr)
		}
		spec, err = flower.DecodeSpec(data)
	} else {
		spec, err = flower.DefaultClickstream(3000)
	}
	if err != nil {
		log.Fatalf("flow definition: %v", err)
	}

	mgr, err := flower.New(spec, sim.Options{Seed: *seed})
	if err != nil {
		log.Fatalf("manager: %v", err)
	}
	if _, err := mgr.Run(*duration); err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := mgr.RenderDashboard(os.Stdout, *window); err != nil {
		log.Fatalf("dashboard: %v", err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := mgr.WriteCSV(f, time.Minute); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metric history written to %s\n", *csvPath)
	}
}
