package fleet

import "ftlhammer/internal/obs"

// EvMigrate traces one device migration: source member (-1 when this
// instance is the receiver), destination member (-1 when the state left
// the process), checkpoint bytes (0 receiver-side).
const EvMigrate = "fleet.migrate"

func init() {
	obs.RegisterEventKind(EvMigrate, "src", "dst", "bytes")
}

// registerFleetObs projects the fleet's own live counters (atomics,
// because the frontend routes sessions concurrently) into the root
// registry at Flush — MergedRegistry runs that Flush before folding the
// member registries in, so fleet_* series land next to the per-device
// transport_* and nvme ones.
func registerFleetObs(f *Fleet, r *obs.Registry) {
	r.OnFlush(func() {
		r.Counter("fleet_sessions_routed_total").Add(f.routed.Load())
		r.Counter("fleet_sessions_refused_total").Add(f.refused.Load())
		r.Counter("fleet_unknown_tenants_total").Add(f.unknownTenants.Load())
		r.Counter("fleet_migrations_total").Add(f.migrations.Load())
		r.Counter("fleet_migration_bytes_total").Add(f.migrationBytes.Load())
		f.mu.Lock()
		devices := len(f.members)
		f.mu.Unlock()
		r.Gauge("fleet_devices").SetMax(float64(devices))
	})
}
