package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestWindowDefaultEndNearHorizon: a from near the servable horizon used to
// overflow the default to=from+51 computation into a negative number and
// report a baffling "window [..,..] is empty"; it must now either serve a
// capped window or reject from itself with a clear error.
func TestWindowDefaultEndNearHorizon(t *testing.T) {
	_, do := newTestServer(t)
	do("POST", "/v1/communities", star9, http.StatusCreated, nil)

	// from beyond the horizon: a clear 400 naming the bound.
	var errResp Error
	path := fmt.Sprintf("/v1/communities/demo/window?from=%d", core.MaxHoliday+1)
	do("GET", path, "", http.StatusBadRequest, &errResp)
	if errResp.Code != CodeBadRequest || !strings.Contains(errResp.Message, "beyond last servable holiday") {
		t.Fatalf("error = %+v, want a bad_request envelope naming the servable-horizon bound", errResp)
	}

	// from at the horizon with no explicit to: the default end caps at
	// MaxHoliday and serves the one remaining holiday.
	var wr struct {
		From     int64 `json:"from"`
		To       int64 `json:"to"`
		Holidays []struct {
			Holiday int64 `json:"holiday"`
		} `json:"holidays"`
	}
	path = fmt.Sprintf("/v1/communities/demo/window?from=%d", core.MaxHoliday)
	do("GET", path, "", http.StatusOK, &wr)
	if wr.To != core.MaxHoliday || len(wr.Holidays) != 1 || wr.Holidays[0].Holiday != core.MaxHoliday {
		t.Fatalf("capped window = from %d to %d with %d rows, want the single holiday %d",
			wr.From, wr.To, len(wr.Holidays), core.MaxHoliday)
	}

	// A few holidays below the horizon: the default end still caps rather
	// than spilling past MaxHoliday.
	path = fmt.Sprintf("/v1/communities/demo/window?from=%d", core.MaxHoliday-10)
	do("GET", path, "", http.StatusOK, &wr)
	if wr.To != core.MaxHoliday || len(wr.Holidays) != 11 {
		t.Fatalf("capped window has to %d and %d rows, want to %d and 11 rows", wr.To, len(wr.Holidays), core.MaxHoliday)
	}
}

// TestWindowPoolRetention: the response pool must refuse to retain rows
// beyond the row cap — and responses whose accumulated Happy backing
// arrays, spare slots included, would pin too much memory.
func TestWindowPoolRetention(t *testing.T) {
	small := &windowResponse{Holidays: make([]HolidayRow, 52)}
	for i := range small.Holidays {
		small.Holidays[i].Happy = make([]int, 8)
	}
	if !retainWindowResponse(small) {
		t.Error("typical one-year response was not pooled")
	}

	tooManyRows := &windowResponse{Holidays: make([]HolidayRow, windowPoolMaxRows+1)}
	if retainWindowResponse(tooManyRows) {
		t.Error("response beyond the row cap was pooled")
	}

	// 512 rows × a dense community's happy sets: under the row cap but far
	// over the total-Happy cap.
	dense := &windowResponse{Holidays: make([]HolidayRow, windowPoolMaxRows)}
	for i := range dense.Holidays {
		dense.Holidays[i].Happy = make([]int, 1024)
	}
	if retainWindowResponse(dense) {
		t.Error("dense response pinning every Happy array was pooled")
	}

	// Spare capacity beyond the last response's length counts too: those
	// slots keep their buffers for reuse.
	spare := &windowResponse{Holidays: make([]HolidayRow, windowPoolMaxRows)}
	for i := range spare.Holidays {
		spare.Holidays[i].Happy = make([]int, 1024)
	}
	spare.Holidays = spare.Holidays[:1] // shrink; buffers stay reachable via cap
	if retainWindowResponse(spare) {
		t.Error("spare slots' Happy buffers were not counted against the cap")
	}
}
