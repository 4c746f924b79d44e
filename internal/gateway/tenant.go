package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"ndpcr/internal/metrics"
)

// Quota bounds one tenant's footprint. Zero fields are unlimited; negative
// ones are refused.
type Quota struct {
	// MaxBytes caps the original (pre-compression) bytes the tenant may
	// have resident across all its namespaces.
	MaxBytes int64 `json:"max_bytes"`
	// MaxCheckpoints caps how many checkpoints the tenant may retain.
	MaxCheckpoints int `json:"max_checkpoints"`
	// MaxInFlight caps the tenant's concurrent requests.
	MaxInFlight int `json:"max_in_flight"`
}

// Rate is a token-bucket request rate limit. A zero PerSec disables
// limiting; negative fields are refused.
type Rate struct {
	// PerSec is the sustained requests-per-second refill rate.
	PerSec float64 `json:"per_sec"`
	// Burst is the bucket depth (defaults to max(1, ceil(PerSec))).
	Burst int `json:"burst"`
}

// Tenant is one authenticated principal of the gateway.
type Tenant struct {
	// Name identifies the tenant in metrics and logs.
	Name string `json:"name"`
	// Token is the bearer token presented in the Authorization header.
	Token string `json:"token"`
	// Namespaces lists the namespaces the tenant may touch; empty grants
	// exactly its own name.
	Namespaces []string `json:"namespaces,omitempty"`
	Quota      Quota    `json:"quota"`
	Rate       Rate     `json:"rate"`
	// DrainWeight is the tenant's share of the gateway's drain slots under
	// QoS scheduling (Config.DrainSlots). Zero or negative means 1.
	DrainWeight float64 `json:"drain_weight,omitempty"`
}

// LoadTenants reads a JSON token file: an array of Tenant objects. Every
// tenant needs a non-empty name and token; names and tokens must be
// unique (a shared token would make per-tenant accounting ambiguous); no
// quota or rate field may be negative (every limit is "> 0 limits", so a
// negative one would silently mean unlimited).
func LoadTenants(path string) ([]Tenant, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: token file: %w", err)
	}
	tenants, err := parseTenants(raw)
	if err != nil {
		return nil, fmt.Errorf("gateway: token file %s: %w", path, err)
	}
	return tenants, nil
}

// parseTenants decodes and validates a token file's contents.
func parseTenants(raw []byte) ([]Tenant, error) {
	var tenants []Tenant
	if err := json.Unmarshal(raw, &tenants); err != nil {
		return nil, err
	}
	if err := ValidateTenants(tenants); err != nil {
		return nil, err
	}
	return tenants, nil
}

// ValidateTenants checks the uniqueness and completeness rules LoadTenants
// enforces, for configs assembled in code.
func ValidateTenants(tenants []Tenant) error {
	if len(tenants) == 0 {
		return fmt.Errorf("no tenants defined")
	}
	names := make(map[string]bool, len(tenants))
	tokens := make(map[string]bool, len(tenants))
	for i, t := range tenants {
		if t.Name == "" || t.Token == "" {
			return fmt.Errorf("tenant %d: name and token are required", i)
		}
		if names[t.Name] {
			return fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		if tokens[t.Token] {
			return fmt.Errorf("tenant %q: token already in use", t.Name)
		}
		names[t.Name] = true
		tokens[t.Token] = true
		for _, f := range []struct {
			field    string
			negative bool
		}{
			{"max_bytes", t.Quota.MaxBytes < 0},
			{"max_checkpoints", t.Quota.MaxCheckpoints < 0},
			{"max_in_flight", t.Quota.MaxInFlight < 0},
			{"per_sec", !(t.Rate.PerSec >= 0)}, // NaN too
			{"burst", t.Rate.Burst < 0},
		} {
			if f.negative {
				return fmt.Errorf("tenant %q: %s must not be negative", t.Name, f.field)
			}
		}
	}
	return nil
}

// tenantState is a tenant plus its live accounting: resident usage, in-
// flight requests, and the rate-limit bucket. Usage is accounted over the
// gateway instance's lifetime, seeded from nothing — a restarted gateway
// re-learns usage as tenants write and delete (a deliberate simplification;
// a store-scan on startup would close the gap).
type tenantState struct {
	Tenant
	allowed map[string]bool // namespace -> permitted

	// The tenant's series, looked up once when the gateway is built:
	// requests served, and payload bytes saved (in) and loaded (out).
	mRequests, mBytesIn, mBytesOut *metrics.Counter

	mu          sync.Mutex
	usedBytes   int64
	checkpoints int
	inflight    int
	tokens      float64   // rate-limit bucket level
	lastRefill  time.Time // last bucket refill instant
}

func newTenantState(t Tenant, now time.Time) *tenantState {
	st := &tenantState{Tenant: t, allowed: make(map[string]bool)}
	if len(t.Namespaces) == 0 {
		st.allowed[t.Name] = true
	}
	for _, ns := range t.Namespaces {
		st.allowed[ns] = true
	}
	if st.Rate.PerSec > 0 && st.Rate.Burst <= 0 {
		st.Rate.Burst = max(1, int(math.Ceil(st.Rate.PerSec)))
	}
	st.tokens = float64(st.Rate.Burst)
	st.lastRefill = now
	return st
}

// takeToken draws one request from the rate bucket, refilling for the
// elapsed time first. It reports false when the bucket is empty.
func (st *tenantState) takeToken(now time.Time) bool {
	if st.Rate.PerSec <= 0 {
		return true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	elapsed := now.Sub(st.lastRefill).Seconds()
	if elapsed > 0 {
		st.tokens += elapsed * st.Rate.PerSec
		if max := float64(st.Rate.Burst); st.tokens > max {
			st.tokens = max
		}
		st.lastRefill = now
	}
	if st.tokens < 1 {
		return false
	}
	st.tokens--
	return true
}

// beginRequest claims an in-flight slot; endRequest releases it.
func (st *tenantState) beginRequest() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.Quota.MaxInFlight > 0 && st.inflight >= st.Quota.MaxInFlight {
		return false
	}
	st.inflight++
	return true
}

func (st *tenantState) endRequest() {
	st.mu.Lock()
	st.inflight--
	st.mu.Unlock()
}

// reserve claims quota for one incoming checkpoint of size bytes before
// any work happens; the returned release undoes the claim if the save
// later fails. kind names the exhausted dimension on rejection.
func (st *tenantState) reserve(bytes int64) (release func(), kind string, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.Quota.MaxBytes > 0 && st.usedBytes+bytes > st.Quota.MaxBytes {
		return nil, "bytes", false
	}
	if st.Quota.MaxCheckpoints > 0 && st.checkpoints+1 > st.Quota.MaxCheckpoints {
		return nil, "checkpoints", false
	}
	st.usedBytes += bytes
	st.checkpoints++
	return func() { st.unreserve(bytes) }, "", true
}

// unreserve returns quota claimed by reserve (failed save or delete).
func (st *tenantState) unreserve(bytes int64) {
	st.mu.Lock()
	st.usedBytes -= bytes
	if st.usedBytes < 0 {
		st.usedBytes = 0
	}
	if st.checkpoints > 0 {
		st.checkpoints--
	}
	st.mu.Unlock()
}
