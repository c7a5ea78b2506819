package ingest_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
)

// Example shows the daemon path from the client's seat: stand up the
// ingest service behind its HTTP API (exactly what cmd/innetd serves),
// POST a batch of observations, and query the converged outlier estimate.
func Example() {
	svc, err := ingest.New(ingest.Config{
		Detector: core.Config{Ranker: core.NN(), N: 1, Window: time.Hour},
		AutoJoin: true,
	})
	if err != nil {
		panic(err)
	}
	defer svc.Close()

	daemon := httptest.NewServer(svc.Handler())
	defer daemon.Close()

	resp, err := http.Post(daemon.URL+"/v1/observations", "application/json",
		strings.NewReader(`{"readings":[
			{"sensor":1,"at_ms":60000,"values":[20.0]},
			{"sensor":2,"at_ms":60000,"values":[20.3]},
			{"sensor":3,"at_ms":61000,"values":[55.3]}
		]}`))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()

	// Wait until every posted reading has been detected on and the
	// fleet's estimates have converged.
	if err := svc.Flush(context.Background()); err != nil {
		panic(err)
	}

	estimate, err := http.Get(daemon.URL + "/v1/outliers?sensor=1")
	if err != nil {
		panic(err)
	}
	defer estimate.Body.Close()
	body, err := io.ReadAll(estimate.Body)
	if err != nil {
		panic(err)
	}
	fmt.Print(string(body))
	// Output: {"sensor":1,"outliers":[{"sensor":3,"seq":61000,"at_ms":61000,"values":[55.3]}]}
}
