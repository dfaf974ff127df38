# Developer entry points; CI runs the same targets.

.PHONY: all vet build test race cover bench bench-smoke micro

all: vet build test

# Statement-coverage floor over ./internal/..., measured before PR 5
# landed. Raise it when coverage rises; never lower it to merge.
COVER_FLOOR := 91.4

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# Mirrors the CI race job: internal packages carry the concurrent paths
# (the serve dispatcher's scheduler lock, obs counters) and the golden
# differential suite.
race:
	go test -race ./internal/...

# Mirrors the CI coverage job: fail when total statement coverage over the
# internal packages drops below the floor.
cover:
	go test -coverprofile=cover.out ./internal/...
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Full benchmark suite with allocation columns.
bench:
	go test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: catches bit-rot without the cost.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Hot-path micro-costs (curve index, value cascade, dispatch cycle).
micro:
	go run ./cmd/schedbench -exp micro
