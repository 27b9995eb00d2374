package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/client"
)

// do sends q over the named transport and returns every row received.
func (s *Stack) do(q Query, transport string) ([][]any, error) {
	switch transport {
	case transportJSON:
		return s.doHTTP(q, false)
	case transportNDJSON:
		return s.doHTTP(q, true)
	case transportVSWP:
		return s.doWire(q)
	}
	return nil, fmt.Errorf("unknown transport %q", transport)
}

func (s *Stack) doHTTP(q Query, stream bool) ([][]any, error) {
	body, err := json.Marshal(map[string]any{"query": q.Text, "params": q.Params, "stream": stream})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, s.httpURL+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //vs:nolint(unchecked-err) read-only body
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: the status already says it failed
		return nil, fmt.Errorf("http status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !stream {
		var out struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("decode response: %w", err)
		}
		return out.Rows, drain(resp)
	}

	// NDJSON: a header object, one array per row, a trailer object.
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	var header struct {
		Columns []string `json:"columns"`
	}
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("decode stream header: %w", err)
	}
	var rows [][]any
	for {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("decode stream: %w", err)
		}
		if len(line) > 0 && line[0] == '[' {
			var row []any
			if err := json.Unmarshal(line, &row); err != nil {
				return nil, fmt.Errorf("decode row: %w", err)
			}
			rows = append(rows, row)
			continue
		}
		var trailer struct {
			Error   string          `json:"error"`
			Summary json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			return nil, fmt.Errorf("decode trailer: %w", err)
		}
		if trailer.Error != "" {
			return nil, errors.New(trailer.Error)
		}
		return rows, drain(resp)
	}
}

func (s *Stack) doWire(q Query) ([][]any, error) {
	rs, err := s.wireConn.Run(q.Text, q.Params)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for {
		row, err := rs.Next()
		if errors.Is(err, client.ErrDone) {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
}

// drain reads what is left of a response body so the connection can be
// reused.
func drain(resp *http.Response) error {
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}
