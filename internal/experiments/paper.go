package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tendax/internal/client"
	"tendax/internal/db"
	"tendax/internal/folders"
	"tendax/internal/index"
	"tendax/internal/mining"
	"tendax/internal/search"
	"tendax/internal/security"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/workflow"
	"tendax/internal/workload"
)

// E1: N concurrent editors over real TCP appending to one document.
// Reported: committed ops/s and end-to-end propagation latency (writer
// commit to observer replica).
func runE1(r *runner) error {
	editorCounts := []int{1, 2, 4, 8, 16}
	opsPer := 60
	if r.Quick {
		editorCounts = []int{1, 2, 4}
		opsPer = 15
	}
	r.printf("%-8s %12s %14s %14s\n", "editors", "ops/s", "commit p50", "propagate p95")
	for _, n := range editorCounts {
		eng, closeDB, err := openEngine(db.Options{}, false)
		if err != nil {
			return err
		}
		srv, addr, err := serve(eng)
		if err != nil {
			return err
		}
		host, observer, err := dialDoc(addr, "host", "e1")
		if err != nil {
			return err
		}
		docID := observer.ID()

		var commit workload.LatencyRecorder
		var cmu sync.Mutex
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := client.Dial(addr, client.WithUser(fmt.Sprintf("player%d", i)))
				if err != nil {
					errCh <- err
					return
				}
				defer c.Close()
				d, err := c.Open(docID)
				if err != nil {
					errCh <- err
					return
				}
				for j := 0; j < opsPer; j++ {
					t0 := time.Now()
					if err := d.Append(fmt.Sprintf("[%d:%d]", i, j)); err != nil {
						errCh <- err
						return
					}
					cmu.Lock()
					commit.Record(time.Since(t0))
					cmu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		elapsed := time.Since(start)
		opsPerSec := float64(n*opsPer) / elapsed.Seconds()

		// Propagation probe: a fresh writer appends once and we measure
		// how long until the observer's replica sequence advances. The
		// writer joins first so its join event is behind us.
		writer, err := client.Dial(addr, client.WithUser("probe"))
		if err != nil {
			return err
		}
		wd, err := writer.Open(docID)
		if err != nil {
			return err
		}
		if err := observer.Resync(); err != nil {
			return err
		}
		baseSeq := observer.Seq()
		t0 := time.Now()
		if err := wd.Append("~probe~"); err != nil {
			return err
		}
		prop := time.Duration(-1)
		for i := 0; i < 10000; i++ {
			if observer.Seq() > baseSeq {
				prop = time.Since(t0)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		_ = writer.Close()

		r.printf("%-8d %12.0f %14v %14v\n", n, opsPerSec, commit.Percentile(50), prop)
		r.emit("ops_per_sec", opsPerSec, "op/s", "higher")
		r.emit("commit_p50_us", us(commit.Percentile(50)), "us", "lower")
		r.emit("propagate_us", us(prop), "us", "lower")
		_ = host.Close()
		_ = srv.Close()
		if err := closeDB(); err != nil {
			return err
		}
	}
	r.println("shape check: throughput grows then saturates with editors; propagation stays in the ms range.")
	return nil
}

// E2: single-character insert/delete transaction latency vs document size.
func runE2(r *runner) error {
	sizes := []int{1_000, 10_000, 100_000}
	samples := 400
	if r.Quick {
		sizes = []int{1_000, 10_000}
		samples = 100
	}
	r.printf("%-10s %12s %12s %12s %12s\n", "doc size", "ins mean", "ins p99", "del mean", "del p99")
	for _, size := range sizes {
		eng, closeDB, err := openEngine(db.Options{}, false)
		if err != nil {
			return err
		}
		doc, err := eng.CreateDocument("typist", "e2")
		if err != nil {
			return err
		}
		rng := util.NewRand(7)
		if err := grow(doc, "typist", rng, size); err != nil {
			return err
		}
		var ins, del workload.LatencyRecorder
		for i := 0; i < samples; i++ {
			pos := rng.Intn(doc.Len())
			t0 := time.Now()
			if _, err := doc.InsertText("typist", pos, "x"); err != nil {
				return err
			}
			ins.Record(time.Since(t0))
		}
		for i := 0; i < samples; i++ {
			pos := rng.Intn(doc.Len() - 1)
			t0 := time.Now()
			if _, err := doc.DeleteRange("typist", pos, 1); err != nil {
				return err
			}
			del.Record(time.Since(t0))
		}
		r.printf("%-10d %12v %12v %12v %12v\n",
			size, ins.Mean(), ins.Percentile(99), del.Mean(), del.Percentile(99))
		r.emit("insert_mean_us", us(ins.Mean()), "us", "lower")
		r.emit("delete_mean_us", us(del.Mean()), "us", "lower")
		if err := closeDB(); err != nil {
			return err
		}
	}
	r.println("shape check: latency is near-flat in document size (O(log n) position index).")
	return nil
}

// E3: undo/redo latency, local and global, at increasing history depth.
func runE3(r *runner) error {
	depths := []int{50, 200, 1000}
	if r.Quick {
		depths = []int{50, 200}
	}
	r.printf("%-10s %12s %12s %14s\n", "history", "undo mean", "redo mean", "global undo")
	for _, depth := range depths {
		eng, closeDB, err := openEngine(db.Options{}, false)
		if err != nil {
			return err
		}
		doc, err := eng.CreateDocument("alice", "e3")
		if err != nil {
			return err
		}
		rng := util.NewRand(3)
		users := []string{"alice", "bob"}
		for i := 0; i < depth; i++ {
			user := users[i%2]
			if _, err := doc.AppendText(user, rng.Letters(6)); err != nil {
				return err
			}
		}
		steps := 30
		if steps > depth/2 {
			steps = depth / 2
		}
		var undo, redo, global workload.LatencyRecorder
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			if _, err := doc.UndoLocal("alice"); err != nil {
				return err
			}
			undo.Record(time.Since(t0))
		}
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			if _, err := doc.RedoLocal("alice"); err != nil {
				return err
			}
			redo.Record(time.Since(t0))
		}
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			if _, err := doc.UndoGlobal("bob"); err != nil {
				return err
			}
			global.Record(time.Since(t0))
		}
		r.printf("%-10d %12v %12v %14v\n", depth, undo.Mean(), redo.Mean(), global.Mean())
		r.emit("undo_mean_us", us(undo.Mean()), "us", "lower")
		r.emit("redo_mean_us", us(redo.Mean()), "us", "lower")
		r.emit("global_undo_mean_us", us(global.Mean()), "us", "lower")
		if err := closeDB(); err != nil {
			return err
		}
	}
	r.println("shape check: undo cost tracks history length only mildly; selective undo works at depth.")
	return nil
}

// E4: workflow task lifecycle throughput with dynamic re-routing.
func runE4(r *runner) error {
	cycles := 150
	if r.Quick {
		cycles = 40
	}
	eng, closeDB, err := openEngine(db.Options{}, false)
	if err != nil {
		return err
	}
	defer closeDB()
	sec, err := security.NewStore(eng)
	if err != nil {
		return err
	}
	wf, err := workflow.NewStore(eng, sec)
	if err != nil {
		return err
	}
	sec.CreateUser("coord", "pw")
	sec.CreateUser("tina", "pw", "translator")
	sec.CreateUser("vera", "pw", "verifier")
	doc, err := eng.CreateDocument("coord", "e4")
	if err != nil {
		return err
	}
	if _, err := doc.AppendText("coord", "contract body"); err != nil {
		return err
	}

	var define, task, route, complete workload.LatencyRecorder
	t0all := time.Now()
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		p, err := wf.Define("coord", doc.ID(), fmt.Sprintf("proc-%d", i))
		if err != nil {
			return err
		}
		define.Record(time.Since(t0))

		t0 = time.Now()
		t1, err := wf.AddTask("coord", p.ID, "translate", "", "role:translator", util.NilID, util.NilID)
		if err != nil {
			return err
		}
		t2, err := wf.AddTask("coord", p.ID, "approve", "", "user:coord", util.NilID, util.NilID)
		if err != nil {
			return err
		}
		task.Record(time.Since(t0))

		t0 = time.Now()
		mid, err := wf.InsertTaskAfter("coord", p.ID, t1.ID, "verify", "", "role:verifier")
		if err != nil {
			return err
		}
		if err := wf.Reroute("coord", mid.ID, "user:vera"); err != nil {
			return err
		}
		route.Record(time.Since(t0))

		t0 = time.Now()
		for _, step := range []struct {
			user string
			id   util.ID
		}{{"tina", t1.ID}, {"vera", mid.ID}, {"coord", t2.ID}} {
			if err := wf.Accept(step.user, step.id); err != nil {
				return err
			}
			if err := wf.Complete(step.user, step.id, "ok"); err != nil {
				return err
			}
		}
		complete.Record(time.Since(t0))
	}
	elapsed := time.Since(t0all)
	r.printf("%-22s %12s\n", "phase", "mean")
	r.printf("%-22s %12v\n", "define process", define.Mean())
	r.printf("%-22s %12v\n", "add 2 tasks", task.Mean())
	r.printf("%-22s %12v\n", "dynamic insert+route", route.Mean())
	r.printf("%-22s %12v\n", "run 3-task chain", complete.Mean())
	r.printf("%d full processes in %v (%.0f processes/s)\n",
		cycles, elapsed.Round(time.Millisecond), float64(cycles)/elapsed.Seconds())
	r.emit("processes_per_sec", float64(cycles)/elapsed.Seconds(), "proc/s", "higher")
	r.println("shape check: every phase is interactive (well under the demo's human timescales).")
	return nil
}

// E5: dynamic folder evaluation latency vs corpus size, plus freshness.
func runE5(r *runner) error {
	sizes := []int{100, 500, 2000}
	if r.Quick {
		sizes = []int{50, 200}
	}
	r.printf("%-10s %12s %12s %10s\n", "docs", "eval time", "freshness", "matches")
	for _, n := range sizes {
		eng, closeDB, err := openEngine(db.Options{}, false)
		if err != nil {
			return err
		}
		if _, err := workload.BuildCorpus(eng, workload.CorpusSpec{
			Docs: n, Users: 8, MeanSize: 120, ReadRatio: 0.5, StateSplit: 0.3, Seed: 11,
		}); err != nil {
			return err
		}
		fstore, err := folders.NewStore(eng)
		if err != nil {
			return err
		}
		folder, err := fstore.CreateDynamic("user0", "recent reads", folders.And{
			folders.ReadBy{User: "user0", Within: 7 * 24 * time.Hour},
			folders.StateIs{State: "draft"},
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		docs, err := fstore.Eval(folder)
		if err != nil {
			return err
		}
		evalTime := time.Since(t0)

		// Freshness: a brand-new read appears on the next evaluation.
		d, err := eng.CreateDocument("user0", "freshdoc")
		if err != nil {
			return err
		}
		if _, err := d.AppendText("user0", "fresh content"); err != nil {
			return err
		}
		before := len(docs)
		_, after, fresh, err := fstore.Freshness(folder, func() error {
			_, err := d.RecordRead("user0")
			return err
		})
		if err != nil {
			return err
		}
		if len(after) != before+1 {
			return fmt.Errorf("freshness violated: %d -> %d", before, len(after))
		}
		r.printf("%-10d %12v %12v %10d\n", n, evalTime, fresh, len(docs))
		r.emit("eval_ms", ms(evalTime), "ms", "lower")
		r.emit("freshness_ms", ms(fresh), "ms", "lower")
		if err := closeDB(); err != nil {
			return err
		}
	}
	r.println("shape check: evaluation is linear in corpus size and sub-second at demo scale;")
	r.println("             a committed change is visible on the very next evaluation.")
	return nil
}

// E6: data lineage (Figure 1) — build the provenance graph of a synthetic
// copy-paste tree, verify it matches the generated edges exactly, write DOT.
func runE6(r *runner) error {
	depth, fanout := 4, 3
	if r.Quick {
		depth, fanout = 3, 2
	}
	eng, closeDB, err := openEngine(db.Options{}, false)
	if err != nil {
		return err
	}
	defer closeDB()
	docs, wantEdges, err := workload.BuildPasteChains(eng, workload.PasteChainSpec{
		Depth: depth, FanOut: fanout, ChunkLen: 32, Externals: 3, Seed: 99,
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	svc, err := index.Open(eng)
	if err != nil {
		return err
	}
	g := svc.Graph()
	build := time.Since(t0)
	defer svc.Close()
	if len(g.Edges) != wantEdges {
		return fmt.Errorf("edge count %d != generated %d", len(g.Edges), wantEdges)
	}
	if err := g.CheckAcyclic(); err != nil {
		return err
	}
	r.printf("%-22s %12s\n", "metric", "value")
	r.printf("%-22s %12d\n", "documents", len(docs))
	r.printf("%-22s %12d\n", "external sources", 3)
	r.printf("%-22s %12d\n", "paste edges", len(g.Edges))
	r.printf("%-22s %12d\n", "root citations", g.CitationCount(docs[0].ID()))
	r.printf("%-22s %12v\n", "graph build time", build)
	leaf := docs[len(docs)-1]
	r.printf("%-22s %12d\n", "leaf ancestry depth", len(g.TransitiveSources(leaf.ID())))
	r.emit("paste_edges", float64(len(g.Edges)), "edges", "higher")
	r.emit("graph_build_ms", ms(build), "ms", "lower")
	if r.Out != "" {
		if err := os.WriteFile(r.Out, []byte(g.DOT()), 0o644); err != nil {
			return err
		}
		r.printf("Figure 1 graph written to %s (%d bytes of DOT)\n", r.Out, len(g.DOT()))
	}
	r.println("shape check: edges equal generated paste events exactly; graph is time-acyclic.")
	return nil
}

// E7: visual mining (Figure 2) — feature extraction + 2-D embedding of the
// document space, with layout-quality and latency measurements.
func runE7(r *runner) error {
	sizes := []int{100, 500}
	if r.Quick {
		sizes = []int{60}
	}
	r.printf("%-10s %14s %14s %12s\n", "docs", "extract time", "layout time", "nbr-preserve")
	var lastPts []mining.Point
	for _, n := range sizes {
		eng, closeDB, err := openEngine(db.Options{}, false)
		if err != nil {
			return err
		}
		if _, err := workload.BuildCorpus(eng, workload.CorpusSpec{
			Docs: n, Users: 10, MeanSize: 200, ReadRatio: 0.6, StateSplit: 0.4,
			Clusters: 4, Seed: 21,
		}); err != nil {
			return err
		}
		svc, err := index.Open(eng)
		if err != nil {
			return err
		}
		g := svc.Graph()
		svc.Close()
		t0 := time.Now()
		feats, err := mining.Extract(eng, g, eng.Clock().Now())
		if err != nil {
			return err
		}
		extract := time.Since(t0)
		t0 = time.Now()
		pts := mining.Layout(feats)
		layout := time.Since(t0)
		if len(pts) != n {
			return fmt.Errorf("layout placed %d of %d documents", len(pts), n)
		}
		pres := mining.NeighbourPreservation(feats, pts, 5)
		r.printf("%-10d %14v %14v %12.2f\n", n, extract, layout, pres)
		r.emit("extract_ms", ms(extract), "ms", "lower")
		r.emit("neighbour_preservation", pres, "frac", "higher")
		lastPts = pts
		if err := closeDB(); err != nil {
			return err
		}
	}
	r.println("\nFigure 2 — the document space (PCA over metadata dimensions):")
	fmt.Fprint(r.W, mining.Scatter(lastPts, 64, 14))
	r.println("shape check: metadata-similar documents cluster; preservation well above chance.")
	return nil
}

// E8: search latency and ranking options vs corpus size.
func runE8(r *runner) error {
	sizes := []int{100, 1000}
	if r.Quick {
		sizes = []int{50, 200}
	}
	r.printf("%-8s %12s %12s %12s %12s %12s\n",
		"docs", "index time", "relevance", "newest", "most-cited", "most-read")
	for _, n := range sizes {
		eng, closeDB, err := openEngine(db.Options{}, false)
		if err != nil {
			return err
		}
		docs, err := workload.BuildCorpus(eng, workload.CorpusSpec{
			Docs: n, Users: 8, MeanSize: 150, ReadRatio: 0.5, Seed: 31,
		})
		if err != nil {
			return err
		}
		// Some citations so most-cited has signal.
		for i := 0; i < len(docs)/10; i++ {
			src := docs[i]
			dst := docs[len(docs)-1-i]
			sz := src.Len()
			if sz > 8 {
				sz = 8
			}
			if sz > 0 {
				clip, err := src.Copy("user0", 0, sz)
				if err != nil {
					return err
				}
				if _, err := dst.Paste("user0", 0, clip); err != nil {
					return err
				}
			}
		}
		t0 := time.Now()
		svc, err := index.Open(eng)
		if err != nil {
			return err
		}
		indexTime := time.Since(t0)

		lat := func(rk search.Ranker) (time.Duration, error) {
			var rec workload.LatencyRecorder
			for i := 0; i < 20; i++ {
				t0 := time.Now()
				if _, err := svc.Query(search.Query{Terms: []string{"a"}, Rank: rk, Limit: 10}); err != nil {
					return 0, err
				}
				rec.Record(time.Since(t0))
			}
			return rec.Mean(), nil
		}
		var means [4]time.Duration
		for i, rk := range []search.Ranker{search.ByRelevance, search.ByNewest, search.ByMostCited, search.ByMostRead} {
			if means[i], err = lat(rk); err != nil {
				return err
			}
		}
		r.printf("%-8d %12v %12v %12v %12v %12v\n", n, indexTime, means[0], means[1], means[2], means[3])
		r.emit("index_ms", ms(indexTime), "ms", "lower")
		r.emit("relevance_query_us", us(means[0]), "us", "lower")
		svc.Close()
		if err := closeDB(); err != nil {
			return err
		}
	}
	r.println("shape check: queries stay interactive as the corpus grows; all rankers comparable.")
	return nil
}

// E9: crash recovery. Two crash images are recovered: (a) an intact log —
// every acknowledged edit must survive — and (b) a log whose tail was torn
// mid-record, simulating a final commit that never fully reached disk —
// exactly that transaction must roll back and everything earlier survive.
func runE9(r *runner) error {
	opsCounts := []int{200, 1000}
	if r.Quick {
		opsCounts = []int{100}
	}
	r.printf("%-8s %14s %10s %10s %12s %12s\n",
		"ops", "recover time", "analyzed", "redone", "intact loss", "torn loss")
	for _, ops := range opsCounts {
		doc, database, _, store, err := crashableDoc("storm", "e9")
		if err != nil {
			return err
		}
		rng := util.NewRand(17)
		for i := 0; i < ops-1; i++ {
			if _, err := doc.AppendText("storm", rng.Letters(4)); err != nil {
				return err
			}
		}
		prefix := doc.Text() // state acknowledged before the final edit
		if _, err := doc.AppendText("storm", rng.Letters(4)); err != nil {
			return err
		}
		full := doc.Text()
		if err := database.Pool().FlushAll(); err != nil {
			return err
		}
		logBytes, err := store.ReadAll()
		if err != nil {
			return err
		}

		// Pages are lost entirely in both images: redo rebuilds them.
		intactDoc, intactDB, recoverTime, err := reopenCrash(storage.NewMemDisk(), logBytes, 0, doc.ID())
		if err != nil {
			return err
		}
		intactLoss := len([]rune(full)) - len([]rune(intactDoc.Text()))
		if intactLoss != 0 {
			return fmt.Errorf("durability violated: %d committed chars lost from intact log", intactLoss)
		}
		tornDoc, _, _, err := reopenCrash(storage.NewMemDisk(), logBytes, 3, doc.ID())
		if err != nil {
			return err
		}
		tornLoss := len([]rune(prefix)) - len([]rune(tornDoc.Text()))
		if tornLoss != 0 {
			return fmt.Errorf("torn-tail recovery wrong: prefix differs by %d chars", tornLoss)
		}
		r.printf("%-8d %14v %10d %10d %12d %12d\n",
			ops, recoverTime, intactDB.Recovery.Analyzed, intactDB.Recovery.Redone,
			intactLoss, tornLoss)
		r.emit("recover_ms", ms(recoverTime), "ms", "lower")
		r.emit("redone_records", float64(intactDB.Recovery.Redone), "records", "lower")
	}
	r.println("shape check: intact log loses nothing; a torn final commit rolls back exactly itself.")
	return nil
}

// E10: ablation — paste with full provenance capture vs plain insert of the
// same text. Quantifies the cost of the metadata gathering the paper relies
// on.
func runE10(r *runner) error {
	pastes := 400
	if r.Quick {
		pastes = 100
	}
	chunk := 64

	eng, closeDB, err := openEngine(db.Options{}, false)
	if err != nil {
		return err
	}
	defer closeDB()
	src, err := eng.CreateDocument("alice", "e10-src")
	if err != nil {
		return err
	}
	rng := util.NewRand(5)
	if _, err := src.AppendText("alice", rng.Letters(chunk*2)); err != nil {
		return err
	}

	withDoc, err := eng.CreateDocument("alice", "e10-with")
	if err != nil {
		return err
	}
	clip, err := src.Copy("alice", 0, chunk)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < pastes; i++ {
		if _, err := withDoc.Paste("alice", withDoc.Len(), clip); err != nil {
			return err
		}
	}
	withProv := time.Since(t0)

	withoutDoc, err := eng.CreateDocument("alice", "e10-without")
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < pastes; i++ {
		if _, err := withoutDoc.InsertText("alice", withoutDoc.Len(), clip.Text); err != nil {
			return err
		}
	}
	withoutProv := time.Since(t0)

	ratio := float64(withProv) / float64(withoutProv)
	r.printf("%-28s %12s %14s\n", "variant", "total", "per paste")
	r.printf("%-28s %12v %14v\n", "paste with provenance", withProv,
		withProv/time.Duration(pastes))
	r.printf("%-28s %12v %14v\n", "plain insert (no lineage)", withoutProv,
		withoutProv/time.Duration(pastes))
	r.printf("overhead factor: %.2fx\n", ratio)
	r.emit("provenance_overhead", ratio, "x", "lower")
	if ratio > 2.0 {
		r.println("WARNING: provenance overhead exceeds the expected <2x envelope")
	} else {
		r.println("shape check: lineage capture costs a small constant factor (<2x), as claimed affordable.")
	}
	return nil
}
