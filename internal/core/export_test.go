package core

import "context"

// LocateForPull runs the pull pipeline's locate stage alone, for the
// external test package (which can build a testbed grid; this one cannot
// import testbed without a cycle). It returns the stage's outputs: the
// remote sources and the entry attrs the later stages read.
func (s *Site) LocateForPull(ctx context.Context, lfn string) ([]PFN, map[string]string, error) {
	p := &pull{s: s, lfn: lfn}
	if err := p.locate(ctx); err != nil {
		return nil, nil, err
	}
	return p.sources, p.entry.Attrs, nil
}
