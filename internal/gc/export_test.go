package gc

import "context"

// Mark runs the mark phase alone, so a test can race it against sweeps.
func (m *Manager) Mark(ctx context.Context) (*markSet, error) { return m.mark(ctx) }
