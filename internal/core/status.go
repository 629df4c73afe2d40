package core

import (
	"sync"
	"time"
)

// TransferRecord is one completed (or failed) replication, the site-level
// analogue of GridFTP's integrated instrumentation: the paper's production
// deployment lived and died by being able to see what moved where, how
// fast, and with how many restarts.
type TransferRecord struct {
	LFN      string
	Source   string // GridFTP endpoint the replica came from
	Bytes    int64
	Elapsed  time.Duration
	Attempts int
	RateMbps float64
	When     time.Time
	Failed   bool
	Error    string
}

// transferLog keeps a bounded history of replication activity.
type transferLog struct {
	mu      sync.Mutex
	records []TransferRecord
	limit   int
}

func newTransferLog(limit int) *transferLog {
	if limit <= 0 {
		limit = 256
	}
	return &transferLog{limit: limit}
}

func (l *transferLog) add(r TransferRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, r)
	if len(l.records) > l.limit {
		l.records = l.records[len(l.records)-l.limit:]
	}
}

func (l *transferLog) list() []TransferRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TransferRecord(nil), l.records...)
}

// TransferHistory returns the site's recent replication records.
func (s *Site) TransferHistory() []TransferRecord {
	return s.xferLog.list()
}
