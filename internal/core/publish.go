package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
	"gdmp/internal/xfer"
)

// This file is the write side of the producer-consumer model (Section 4.1)
// as one list of stages, in two halves:
//
//	producer: resolve → checksum → register → land → enqueue → deliver → ack
//	consumer: notice → intent → pull
//
// publishFile runs resolve through land per file, and publish hands what
// landed to one enqueue (notifySubscribers); drainSubscriber delivers and
// acks. The gdmp.notify handler journals the intents, takeOn admits them,
// and the pull is pull.go's.

// PublishOptions tunes Publish.
type PublishOptions struct {
	// LFN overrides the generated logical file name.
	LFN string

	// FileType selects the replication plug-in (default "flat").
	FileType string

	// Collection, when set, groups the file in the replica catalog.
	Collection string
}

// PublishedFile reports one file made visible to the Grid.
type PublishedFile struct {
	LFN  string
	PFN  PFN
	Size int64
	CRC  string
}

// --- producer half -------------------------------------------------------------

// Publish makes a locally produced file visible to the Grid (Section 4.2):
// it is added to the replica catalog with its meta-information, and all
// subscribers are notified of its existence. It is PublishAll of one file,
// the one case that may name its LFN.
func (s *Site) Publish(relPath string, opts PublishOptions) (PublishedFile, error) {
	published, err := s.publish([]string{relPath}, opts)
	if err != nil {
		return PublishedFile{}, err
	}
	return published[0], nil
}

// PublishAll publishes a set of locally produced files and notifies every
// subscriber once, with the whole batch in a single message — the paper's
// "each data production site publishes a set of newly created files to a
// set of one or more consumer sites". All files share the same options
// (collection and file type); per-file LFNs are derived from their paths.
//
// Registration is per file; a failure aborts the batch after the files
// already registered (their notifications are included so consumers stay
// consistent).
func (s *Site) PublishAll(relPaths []string, opts PublishOptions) ([]PublishedFile, error) {
	if opts.LFN != "" {
		return nil, fmt.Errorf("core: PublishAll derives LFNs from paths; the LFN option is not allowed")
	}
	return s.publish(relPaths, opts)
}

// publish runs the producer half over a batch: publishFile per file until
// one fails, then one enqueue of every entry landed so far. A notice the
// journal refuses fails the publish, so nothing is acknowledged that would
// not redeliver after a crash. The call's latency is one observation, and
// each file counts once, with the outcome of its last stage.
func (s *Site) publish(relPaths []string, opts PublishOptions) ([]PublishedFile, error) {
	defer s.met.publishTime.Time()()
	var published []PublishedFile
	var landed []FileInfo
	var err error
	for _, rel := range relPaths {
		fi, ferr := s.publishFile(rel, opts)
		if ferr != nil {
			s.met.publishes.WithLabelValues("error").Inc()
			err = fmt.Errorf("core: publish %s: %w", rel, ferr)
			break
		}
		landed = append(landed, fi)
		published = append(published, PublishedFile{LFN: fi.LFN, PFN: s.pfnFor(fi.Path), Size: fi.Size, CRC: fi.CRC32})
	}
	if len(landed) > 0 {
		nerr := s.notifySubscribers(landed)
		s.met.publishes.WithLabelValues(outcomeOf(nerr)).Add(int64(len(landed)))
		if err == nil {
			err = nerr
		}
	}
	return published, err
}

// publishFile runs the per-file stages: resolve the path and file type,
// checksum, register with the replica catalog, land here.
func (s *Site) publishFile(relPath string, opts PublishOptions) (FileInfo, error) {
	localPath, err := s.resolveLocal(relPath)
	if err != nil {
		return FileInfo{}, err
	}
	info, err := os.Stat(localPath)
	if err != nil {
		return FileInfo{}, err
	}
	if info.IsDir() {
		return FileInfo{}, errors.New("is a directory")
	}
	ft, err := s.types.lookup(opts.FileType)
	if err != nil {
		return FileInfo{}, err
	}
	pfn := s.pfnFor(relPath)
	lfn := opts.LFN
	if lfn == "" {
		lfn = "lfn://" + s.cfg.Name + "/" + pfn.Path
	}

	crc, err := gridftp.CRC32File(localPath)
	if err != nil {
		return FileInfo{}, err
	}
	fi := FileInfo{
		LFN: lfn, Path: pfn.Path, Size: info.Size(),
		CRC32: fmt.Sprintf("%08x", crc), FileType: ft.Name(), State: StateDisk,
	}

	attrs := map[string]string{
		replica.AttrSize:     strconv.FormatInt(fi.Size, 10),
		replica.AttrModified: replica.Timestamp(info.ModTime()),
		replica.AttrCRC:      fi.CRC32,
		replica.AttrFileType: fi.FileType,
		replica.AttrOwner:    s.cfg.Cred.Identity().String(),
		attrPath:             pfn.Path,
		attrSite:             s.cfg.Name,
	}
	if ap, ok := ft.(AttrProvider); ok {
		typeAttrs, err := ap.PublishAttrs(localPath)
		if err != nil {
			return FileInfo{}, err
		}
		for k, v := range typeAttrs {
			attrs[k] = v
		}
	}
	// Register before land: a name already taken in the global namespace
	// fails the publish before this site has journaled anything.
	if err := s.rc.publishFile(s.ctx, lfn, attrs, pfn, opts.Collection); err != nil {
		return FileInfo{}, err
	}
	if err := s.land(fi, nil); err != nil {
		return FileInfo{}, err
	}
	return fi, nil
}

// RebuildLocalCatalog reconstructs the site's local file catalog from the
// central replica catalog after a restart: every logical file the catalog
// attributes to this site and whose bytes are present (on disk, or behind
// the MSS) lands again like any producer original. It returns how many
// entries were restored.
//
// Together with RemoteCatalog/Recover this completes GDMP's failure
// recovery story: a crashed site loses no published state, because the
// replica catalog is the durable record.
func (s *Site) RebuildLocalCatalog() (int, error) {
	entries, err := s.rc.Query(s.ctx, "("+attrSite+"="+s.cfg.Name+")")
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, entry := range entries {
		rel := entry.Attrs[attrPath]
		if rel == "" || s.HasFile(entry.Name) {
			continue
		}
		localPath, err := s.resolveLocal(rel)
		if err != nil {
			continue
		}
		state := StateDisk
		if _, err := os.Stat(localPath); err != nil {
			// Not on disk: only adoptable when the MSS holds it on tape.
			if s.storage == nil {
				continue
			}
			if _, err := s.storage.TapeSize(rel); err != nil {
				continue
			}
			state = StateTape
		}
		size, _ := entry.Size()
		fi := FileInfo{
			LFN:      entry.Name,
			Path:     rel,
			Size:     size,
			CRC32:    entry.Attrs[replica.AttrCRC],
			FileType: entry.Attrs[replica.AttrFileType],
			State:    state,
		}
		if err := s.land(fi, nil); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}

// notifySubscribers is the enqueue stage: it journals the landed files as
// one notice on every healthy subscriber's queue and kicks each
// subscriber's drain goroutine. Delivery is asynchronous and retried with
// backoff; a subscriber that keeps failing turns suspect and reconciles
// later via the catalog transfer (Recover). A notice is journaled before
// Publish returns: an acknowledged publication's notices survive a crash
// and redeliver after restart, and a journal failure is returned, so
// Publish fails rather than acks a notice that would not.
func (s *Site) notifySubscribers(files []FileInfo) error {
	names, suspect := s.subscriberNames()
	s.met.notifySkipped.Add(int64(len(suspect)))
	var errs []error
	for _, name := range names {
		if err := s.persist.notifyQueue(name, files); err != nil {
			errs = append(errs, fmt.Errorf("core: journal notice for %s: %w", name, err))
		}
	}
	s.startDrains()
	return errors.Join(errs...)
}

// startDrains starts a delivery goroutine for every subscriber that has
// notices queued, is not suspect and has none running yet.
func (s *Site) startDrains() {
	tbl := &s.persist.st
	tbl.subMu.Lock()
	for _, st := range tbl.subs {
		if len(st.queue) > 0 && !st.suspect && !st.draining {
			st.draining = true
			s.notifyWG.Add(1)
			go s.drainSubscriber(st)
		}
	}
	tbl.subMu.Unlock()
	s.updateNotifyGauges()
}

// updateNotifyGauges refreshes the subscriber-count, queue-depth and
// suspect gauges from the table.
func (s *Site) updateNotifyGauges() {
	tbl := &s.persist.st
	tbl.subMu.Lock()
	defer tbl.subMu.Unlock()
	var depth, suspect int64
	for _, st := range tbl.subs {
		depth += int64(len(st.queue))
		if st.suspect {
			suspect++
		}
	}
	s.met.subscribers.Set(int64(len(tbl.subs)))
	s.met.notifyQueueDepth.Set(depth)
	s.met.suspectSubscribers.Set(suspect)
}

// drainSubscriber is the deliver and ack stages: it delivers one
// subscriber's queued notices in order, backing off between consecutive
// failures. After NotifyFailureThreshold consecutive failures the
// subscriber is marked suspect and its queue dropped: GDMP's recovery path
// for a site that missed notifications is the producer-catalog
// reconciliation (Recover), not an unbounded queue. The goroutine stops,
// acknowledging nothing, once st is no longer the registered subscriber of
// its name (unsubscribed, perhaps subscribed again since): the queue under
// that name is not the one it was sending.
func (s *Site) drainSubscriber(st *subscriberState) {
	defer s.notifyWG.Done()
	tbl := &s.persist.st
	pol := s.cfg.Retry
	var jerr error
	for {
		tbl.subMu.Lock()
		if jerr != nil || len(st.queue) == 0 || st.suspect || s.ctx.Err() != nil || tbl.subs[st.name] != st {
			// Ended under the lock hold of the look at the queue, so a
			// notice queued after it starts a new drain.
			st.draining = false
			tbl.subMu.Unlock()
			s.updateNotifyGauges()
			return
		}
		batch, addr := st.queue, st.addr
		tbl.subMu.Unlock()

		var e rpc.Encoder
		e.String(s.cfg.Name)
		encodeFileInfos(&e, batch)
		_, err := s.call(s.ctx, addr, MethodNotify, &e)
		s.met.notifySent.WithLabelValues(outcomeOf(err)).Inc()
		failures := 0
		if err != nil {
			tbl.subMu.Lock()
			st.failures++
			failures = st.failures
			tbl.subMu.Unlock()
		}
		switch {
		case err == nil:
			jerr = s.persist.notifyAck(st, len(batch))
		case failures >= s.cfg.NotifyFailureThreshold:
			jerr = s.persist.notifyDrop(st)
			s.logger.Printf("gdmp[%s]: subscriber %s (%s) suspect after %d failures: %v",
				s.cfg.Name, st.name, addr, failures, err)
		default:
			s.met.notifyRedeliveries.Inc()
			s.logger.Printf("gdmp[%s]: notify %s (%s) failed (%d/%d), retrying: %v",
				s.cfg.Name, st.name, addr, failures, s.cfg.NotifyFailureThreshold, err)
			retry.Sleep(s.ctx, pol.Delay(failures))
		}
		if jerr != nil {
			// The journal is latched and the queue stands as it was: what
			// is on it redelivers after a restart (consumers dedup by LFN).
			// The drain ends at the top of the loop.
			s.logger.Printf("gdmp[%s]: journal delivery state of %s: %v", s.cfg.Name, st.name, jerr)
		}
		s.updateNotifyGauges()
	}
}

// Subscribers lists the currently subscribed consumer sites.
func (s *Site) Subscribers() []string {
	healthy, suspect := s.subscriberNames()
	return append(healthy, suspect...)
}

// SuspectSubscribers lists subscribers currently marked suspect.
func (s *Site) SuspectSubscribers() []string {
	_, suspect := s.subscriberNames()
	return suspect
}

// subscriberNames splits the registered subscribers' names by suspicion.
func (s *Site) subscriberNames() (healthy, suspect []string) {
	tbl := &s.persist.st
	tbl.subMu.Lock()
	defer tbl.subMu.Unlock()
	for name, st := range tbl.subs {
		if st.suspect {
			suspect = append(suspect, name)
		} else {
			healthy = append(healthy, name)
		}
	}
	return healthy, suspect
}

// SubscribeTo registers this site as a consumer of another site's
// publications (Section 4.1's first client service).
func (s *Site) SubscribeTo(remoteAddr string) error {
	var e rpc.Encoder
	e.String(s.cfg.Name)
	e.String(s.Addr())
	if _, err := s.call(s.ctx, remoteAddr, MethodSubscribe, &e); err != nil {
		return err
	}
	// The producer is now an anti-entropy peer: its digest tells us about
	// files whose notifications we miss.
	s.addProducer(remoteAddr)
	return nil
}

// UnsubscribeFrom removes this site from a producer's subscriber list.
func (s *Site) UnsubscribeFrom(remoteAddr string) error {
	var e rpc.Encoder
	e.String(s.cfg.Name)
	if _, err := s.call(s.ctx, remoteAddr, MethodUnsubscribe, &e); err != nil {
		return err
	}
	s.removeProducer(remoteAddr)
	return nil
}

// --- consumer half -------------------------------------------------------------

// takeOn is what the site does with the intents it owns (accepted notices,
// intents recovered from the journal): with AutoReplicate each is admitted
// to the scheduler at once; without, they are pending until ProcessPending.
func (s *Site) takeOn(files []FileInfo) {
	if !s.cfg.AutoReplicate {
		s.pending("")
		return
	}
	for _, fi := range files {
		s.submitGet(fi.LFN, 0)
	}
}

// Pending lists the journaled intents (accepted notices, admitted pulls)
// whose file is absent and that the scheduler neither queues nor runs, in
// LFN order. A failed pull stays pending because its intent stays
// journaled, in this life as after a restart.
func (s *Site) Pending() []FileInfo { return s.pending("") }

// pending is Pending, refreshing gdmp_site_pending_queue_depth: every
// change to the set ends in a call. ending is a job whose body is
// returning, which the scheduler holds until it has.
func (s *Site) pending(ending string) []FileInfo {
	var out []FileInfo
	for _, fi := range s.persist.st.incompletePulls() {
		if s.HasFile(fi.LFN) || (fi.LFN != ending && s.sched.Holds(fi.LFN)) {
			continue
		}
		out = append(out, fi)
	}
	s.met.pendingDepth.Set(int64(len(out)))
	return out
}

// ProcessPending pulls every pending file through the scheduler as one
// concurrent batch and returns how many were fetched. Each is attempted
// even when others fail; the failed ones stay pending for a later pass,
// and their errors come back joined.
func (s *Site) ProcessPending() (int, error) {
	fetched, err := s.pullAll(s.Pending(), 0, "pending")
	return len(fetched), err
}

// pullAll fans a batch of files out to the scheduler and waits for all of
// them. It returns the LFNs fetched and the failures joined into one
// error. Already-present files count as neither.
func (s *Site) pullAll(files []FileInfo, priority int, op string) ([]string, error) {
	// Submit everything before waiting on anything: the batch is a
	// fan-out, and admission order is preserved by the FIFO queue.
	var lfns []string
	var tickets []*xfer.Ticket
	for _, fi := range files {
		if s.HasFile(fi.LFN) {
			// Already here: any journaled pull intent for it is satisfied.
			s.journalPullDone(fi.LFN)
			continue
		}
		lfns = append(lfns, fi.LFN)
		tickets = append(tickets, s.submitGet(fi.LFN, priority))
	}
	var fetched []string
	var errs []error
	for i, tk := range tickets {
		if err := tk.Wait(s.ctx); err != nil {
			errs = append(errs, fmt.Errorf("core: %s %s: %w", op, lfns[i], err))
			continue
		}
		fetched = append(fetched, lfns[i])
	}
	return fetched, errors.Join(errs...)
}

// WaitForFile blocks until the LFN is replicated locally or the timeout
// expires (used with AutoReplicate). It waits on the local catalog's
// arrival notification rather than polling.
func (s *Site) WaitForFile(lfn string, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.local.await(lfn):
		return nil
	case <-t.C:
		return fmt.Errorf("core: %s did not arrive within %v", lfn, timeout)
	}
}

// RemoteCatalog fetches another site's local file catalog — GDMP's failure
// recovery path: a site that missed notifications reconciles against the
// producer's catalog.
func (s *Site) RemoteCatalog(remoteAddr string) ([]FileInfo, error) {
	d, err := s.call(s.ctx, remoteAddr, MethodCatalog, nil)
	if err != nil {
		return nil, err
	}
	return DecodeCatalogReply(d)
}

// DecodeCatalogReply reads one complete gdmp.catalog reply: the one
// decoder of its layout, shared with the gdmp CLI.
func DecodeCatalogReply(d *rpc.Decoder) ([]FileInfo, error) {
	files := decodeFileInfos(d)
	return files, d.Finish()
}

// Recover pulls every file the remote site has that we lack, using its
// catalog instead of notifications (failure recovery after downtime).
// Every missing file is attempted even when some fail — a single dead
// source must not stop the whole reconciliation — and the failures come
// back joined, alongside the true count of files that did arrive.
func (s *Site) Recover(remoteAddr string) (int, error) {
	files, err := s.RemoteCatalog(remoteAddr)
	if err != nil {
		return 0, err
	}
	// Recovery is bulk reconciliation; it runs below notification-driven
	// pulls so it cannot starve them.
	fetched, err := s.pullAll(files, -1, "recover")
	return len(fetched), err
}

// --- server handlers -------------------------------------------------------------

// registerPublishHandlers wires the write side's verbs into the Request
// Manager: subscribe, unsubscribe, notify, and the catalog Recover reads.
func (s *Site) registerPublishHandlers() {
	s.gdmpSrv.Handle(MethodSubscribe, func(ctx context.Context, peer *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		addr := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		if name == "" || addr == "" {
			return errors.New("subscribe wants site name and address")
		}
		// Journaled before the RPC acks: a subscription that the consumer
		// believes registered survives a producer crash. A journal failure
		// fails the RPC, and registers nothing, so the consumer retries
		// instead of trusting an ack the disk does not back.
		if err := s.persist.subscribe(name, addr); err != nil {
			return fmt.Errorf("core: journal subscribe %s: %w", name, err)
		}
		s.updateNotifyGauges()
		s.logger.Printf("gdmp[%s]: %s subscribed as %s (%s)", s.cfg.Name, peer.Base, name, addr)
		return nil
	})
	s.gdmpSrv.Handle(MethodUnsubscribe, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		if err := s.persist.unsubscribe(name); err != nil {
			return fmt.Errorf("core: journal unsubscribe %s: %w", name, err)
		}
		s.updateNotifyGauges()
		return nil
	})
	s.gdmpSrv.Handle(MethodNotify, func(ctx context.Context, peer *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		from := args.String()
		files := decodeFileInfos(args)
		if err := args.Finish(); err != nil {
			return err
		}
		s.met.notifyRecv.Inc()
		s.logger.Printf("gdmp[%s]: notified by %s of %d files", s.cfg.Name, from, len(files))
		// Journal every accepted notice of a file this site lacks before
		// the handler returns: once the producer sees the ack and dequeues,
		// this site owns the pull, so it must survive a crash here. A
		// journal failure fails the RPC and the producer keeps the notice
		// queued for redelivery.
		var fresh []FileInfo
		for _, fi := range files {
			if s.HasFile(fi.LFN) {
				continue
			}
			if err := s.persist.pullQueued(fi); err != nil {
				return fmt.Errorf("core: journal notice %s: %w", fi.LFN, err)
			}
			fresh = append(fresh, fi)
		}
		s.takeOn(fresh)
		return nil
	})
	s.gdmpSrv.Handle(MethodCatalog, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		encodeFileInfos(resp, s.local.list())
		return nil
	})
}
