package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// statusReply is the GET /fleet/status JSON shape.
type statusReply struct {
	Policy   string         `json:"policy"`
	Frontend string         `json:"frontend,omitempty"`
	Devices  []deviceStatus `json:"devices"`
	Routes   []routeStatus  `json:"routes"`
}

type deviceStatus struct {
	Index   int    `json:"index"`
	Addr    string `json:"addr"`
	Profile string `json:"profile"`
	Retired bool   `json:"retired"`
	Tenants []int  `json:"tenants"`
}

type routeStatus struct {
	Tenant  int    `json:"tenant"`
	Device  int    `json:"device"`
	NSID    int    `json:"nsid"`
	State   string `json:"state"`
	MovedTo string `json:"moved_to,omitempty"`
}

// AdminHandler returns the fleet's HTTP admin surface:
//
//	GET  /fleet/status   placement table and member states
//	GET  /fleet/metrics  live fleet counters (fleet-owned atomics only)
//	POST /fleet/migrate?device=N[&target=URL]
//	                     migrate device N in-process, or to the instance
//	                     whose admin endpoint is at URL
//	POST /fleet/receive  inbound half of a cross-process migration
//
// Migration requests run synchronously: the response carries the
// MigrationReport (state hash included) or the failure.
func (f *Fleet) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/status", f.handleStatus)
	mux.HandleFunc("/fleet/metrics", f.handleMetrics)
	mux.HandleFunc("/fleet/migrate", f.handleMigrate)
	mux.HandleFunc("/fleet/receive", f.handleReceive)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (f *Fleet) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reply := statusReply{
		Policy:   f.cfg.Placement.Policy.String(),
		Frontend: f.FrontendAddr(),
	}
	f.mu.Lock()
	members := make([]*Member, len(f.members))
	copy(members, f.members)
	f.mu.Unlock()
	for _, m := range members {
		reply.Devices = append(reply.Devices, deviceStatus{
			Index:   m.Index,
			Addr:    m.addr,
			Profile: m.BD.ProfileName,
			Retired: m.retired,
			Tenants: f.table.TenantsOn(m.Index),
		})
	}
	for _, rt := range f.table.Routes() {
		reply.Routes = append(reply.Routes, routeStatus{
			Tenant: rt.Tenant, Device: rt.Device, NSID: rt.NSID,
			State: rt.State.String(), MovedTo: rt.MovedTo,
		})
	}
	writeJSON(w, reply)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, f.Stats())
}

func (f *Fleet) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	device, err := strconv.Atoi(r.URL.Query().Get("device"))
	if err != nil {
		http.Error(w, "fleet: ?device=N required", http.StatusBadRequest)
		return
	}
	var report *MigrationReport
	if target := r.URL.Query().Get("target"); target != "" {
		report, err = f.MigrateOut(r.Context(), device, target, nil)
	} else {
		report, err = f.Migrate(r.Context(), device)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, report)
}

func (f *Fleet) handleReceive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	seed, err := strconv.ParseUint(r.Header.Get(headerSeed), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad %s: %v", headerSeed, err), http.StatusBadRequest)
		return
	}
	wantHash, err := strconv.ParseUint(r.Header.Get(headerStateHash), 16, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad %s: %v", headerStateHash, err), http.StatusBadRequest)
		return
	}
	routes, err := parseTenantRoutes(r.Header.Get(headerTenants))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	report, err := f.Receive(seed, wantHash, routes, r.Body)
	if errors.Is(err, errBadRoutes) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, receiveReply{
		StateHash: report.StateHash,
		Device:    report.Dst,
		Frontend:  f.FrontendAddr(),
	})
}
