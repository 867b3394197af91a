package resultcache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// MaxBlobBytes bounds one cache entry on the HTTP object-store wire (both
// what BlobHandler accepts and what HTTPStore reads back). Encoded results
// in this repository are kilobytes; the bound only exists so a confused or
// hostile client can't buffer gigabytes into a cache server.
const MaxBlobBytes = 64 << 20

// HTTPStore is the remote object-store backend: a Store client for the
// /v1/blobs API served by BlobHandler (embedded in every serve node and in
// archcontest cachesrv). Many processes sharing one HTTPStore base URL
// share one content-addressed result tier; the Cache's in-memory LRU in
// front keeps repeated lookups off the network.
type HTTPStore struct {
	base   string
	client *http.Client
}

// NewHTTPStore returns a client for the blob store rooted at base
// (e.g. "http://cache-host:8081"). A nil client gets a dedicated one with a
// conservative timeout; pass an explicit client to tune it.
func NewHTTPStore(base string, client *http.Client) *HTTPStore {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPStore{base: strings.TrimRight(base, "/"), client: client}
}

// Location reports the remote base URL.
func (s *HTTPStore) Location() string { return s.base }

func (s *HTTPStore) url(key string) string { return s.base + "/v1/blobs/" + key }

// Get fetches the blob; a 404 is ErrNotFound, anything else non-2xx is an
// infrastructure error.
func (s *HTTPStore) Get(key string) ([]byte, error) {
	resp, err := s.client.Get(s.url(key))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, ErrNotFound
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return nil, fmt.Errorf("resultcache: blob GET %s: %s", key, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, MaxBlobBytes))
}

// Put uploads the blob under key.
func (s *HTTPStore) Put(key string, blob []byte) error {
	req, err := http.NewRequest(http.MethodPut, s.url(key), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("resultcache: blob PUT %s: %s", key, resp.Status)
	}
	return nil
}

// Delete removes the blob; absent blobs are a no-op.
func (s *HTTPStore) Delete(key string) error {
	req, err := http.NewRequest(http.MethodDelete, s.url(key), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		return fmt.Errorf("resultcache: blob DELETE %s: %s", key, resp.Status)
	}
	return nil
}

// validBlobKey accepts exactly the shape Key produces (lowercase hex, at
// least 4 nibbles) so a handler never maps a request path onto an
// unexpected file name.
func validBlobKey(key string) bool {
	if len(key) < 4 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// BlobHandler serves any Store over the /v1/blobs HTTP API consumed by
// HTTPStore:
//
//	GET    /v1/blobs/{key}  the blob (404 when absent)
//	PUT    /v1/blobs/{key}  store the body under key
//	DELETE /v1/blobs/{key}  drop the entry (204 even when absent)
//
// Keys must be lowercase hex (the SHA-256 content addresses Key produces);
// anything else is a 400 before it can touch the backend.
func BlobHandler(s Store) http.Handler {
	mux := http.NewServeMux()
	blobErr := func(w http.ResponseWriter, code int, err error) {
		http.Error(w, err.Error(), code)
	}
	key := func(w http.ResponseWriter, r *http.Request) (string, bool) {
		k := r.PathValue("key")
		if !validBlobKey(k) {
			blobErr(w, http.StatusBadRequest, fmt.Errorf("invalid blob key %q", k))
			return "", false
		}
		return k, true
	}
	mux.HandleFunc("GET /v1/blobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		k, ok := key(w, r)
		if !ok {
			return
		}
		blob, err := s.Get(k)
		switch {
		case err == ErrNotFound:
			blobErr(w, http.StatusNotFound, fmt.Errorf("no blob %s", k))
		case err != nil:
			blobErr(w, http.StatusInternalServerError, err)
		default:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(blob)
		}
	})
	mux.HandleFunc("PUT /v1/blobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		k, ok := key(w, r)
		if !ok {
			return
		}
		body := http.MaxBytesReader(w, r.Body, MaxBlobBytes)
		blob, err := io.ReadAll(body)
		if err != nil {
			blobErr(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		if err := s.Put(k, blob); err != nil {
			blobErr(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /v1/blobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		k, ok := key(w, r)
		if !ok {
			return
		}
		if err := s.Delete(k); err != nil {
			blobErr(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
