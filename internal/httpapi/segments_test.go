package httpapi

import (
	"context"
	"testing"
)

func TestSegmentsEndpoint(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()

	// Observations an hour in the past land in a closed bucket; both in
	// the same minute so they seal into a single segment.
	if _, err := client.Ingest(ctx, []ObservationDTO{
		wifiObs("aa:00:00:00:00:01", -70),
		wifiObs("aa:00:00:00:00:02", -70),
	}); err != nil {
		t.Fatal(err)
	}

	dto, err := client.Segments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !dto.Enabled {
		t.Fatal("columnar tier reported disabled")
	}
	if dto.Stats.Segments != 0 || len(dto.Segments) != 0 {
		t.Fatalf("segments before compaction = %+v", dto.Segments)
	}
	if dto.Stats.HotRows != 2 || dto.Stats.ColdRows != 0 {
		t.Errorf("before compaction: %d hot / %d cold rows, want 2 / 0", dto.Stats.HotRows, dto.Stats.ColdRows)
	}

	if _, err := bms.Columnar().CompactOnce(); err != nil {
		t.Fatal(err)
	}
	dto, err = client.Segments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dto.Segments) != 1 || dto.Segments[0].Rows != 2 {
		t.Fatalf("segments after compaction = %+v", dto.Segments)
	}
	if dto.Stats.Watermark == 0 || dto.Stats.Rows != 2 {
		t.Errorf("stats = %+v", dto.Stats)
	}
	// The split an operator sees: sealed rows are the segments' alone.
	if dto.Stats.HotRows != 0 || dto.Stats.ColdRows != 2 || bms.Store().Resident() != 0 {
		t.Errorf("after compaction: %d hot / %d cold rows, %d resident; want 0 / 2 / 0",
			dto.Stats.HotRows, dto.Stats.ColdRows, bms.Store().Resident())
	}
	// Zone-map metadata only: the DTO must not carry observation
	// contents.
	if dto.Segments[0].Users != 2 || dto.Segments[0].Sensors != 1 {
		t.Errorf("segment summary = %+v", dto.Segments[0])
	}
}
