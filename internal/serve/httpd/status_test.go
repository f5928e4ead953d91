package httpd

import (
	"net/http"
	"testing"
)

// TestStatusTextMatchesNetHTTP: every status the loop or the route
// table can emit carries net/http's reason phrase, and the Date header
// is written in net/http's layout.
func TestStatusTextMatchesNetHTTP(t *testing.T) {
	for _, st := range []struct{ local, netHTTP int }{
		{statusOK, http.StatusOK},
		{statusNoContent, http.StatusNoContent},
		{statusBadRequest, http.StatusBadRequest},
		{statusNotFound, http.StatusNotFound},
		{statusMethodNotAllowed, http.StatusMethodNotAllowed},
		{statusRequestHeaderFieldsTooLarge, http.StatusRequestHeaderFieldsTooLarge},
		{statusNotImplemented, http.StatusNotImplemented},
		{statusServiceUnavailable, http.StatusServiceUnavailable},
		{statusHTTPVersionNotSupported, http.StatusHTTPVersionNotSupported},
	} {
		got, want := statusText(st.local), http.StatusText(st.netHTTP)
		if st.local != st.netHTTP || got != want || got == "" {
			t.Errorf("status %d %q, net/http's is %d %q", st.local, got, st.netHTTP, want)
		}
	}
	if want := "HTTP/1.1 100 " + http.StatusText(http.StatusContinue) + "\r\n\r\n"; string(continueReply) != want {
		t.Errorf("continue reply %q, want %q", continueReply, want)
	}
	if timeFormat != http.TimeFormat {
		t.Errorf("Date layout %q, net/http's is %q", timeFormat, http.TimeFormat)
	}
}
