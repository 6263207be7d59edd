// Package storetest selects the chunk-store implementation backing the
// providers in cluster tests. The GC acceptance suite and the -race
// convergence hammers were written against the in-memory store; setting
// BLOBSEER_PROVIDER_STORE=disk re-runs them unmodified against the
// log-structured disk store — CI does exactly that — proving the
// provider lifecycle contract holds on disk.
package storetest

import (
	"os"
	"sync"
	"testing"

	"blobseer/internal/diskstore"
	"blobseer/internal/provider"
)

// EnvVar names the store selector consulted by Factory.
const EnvVar = "BLOBSEER_PROVIDER_STORE"

// Factory returns a core.Options.ProviderStore factory for the store
// named by BLOBSEER_PROVIDER_STORE, or nil (meaning: the in-memory
// default) when the variable is unset or "mem". Disk stores live
// under per-test temp dirs and are closed by t.Cleanup.
func Factory(t testing.TB) func(id string) provider.Store {
	mode := os.Getenv(EnvVar)
	switch mode {
	case "", "mem":
		return nil
	case "disk":
	default:
		t.Fatalf("unknown %s=%q (want mem or disk)", EnvVar, mode)
	}
	var mu sync.Mutex
	return func(id string) provider.Store {
		mu.Lock()
		defer mu.Unlock()
		ds, err := diskstore.Open(t.TempDir(), diskstore.Options{})
		if err != nil {
			t.Fatalf("storetest: open diskstore for provider %s: %v", id, err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
}
