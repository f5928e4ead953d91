package httpd

// The statuses the route table and the connection loop answer with,
// and the reply-header vocabulary they are written in: the package's
// own copies of net/http's, so that the service links none of it.
// TestStatusTextMatchesNetHTTP holds them to net/http's.
const (
	statusOK                          = 200
	statusNoContent                   = 204
	statusBadRequest                  = 400
	statusNotFound                    = 404
	statusMethodNotAllowed            = 405
	statusRequestHeaderFieldsTooLarge = 431
	statusNotImplemented              = 501
	statusServiceUnavailable          = 503
	statusHTTPVersionNotSupported     = 505
)

// timeFormat is the layout of the Date header (RFC 9110 §5.6.7's
// IMF-fixdate), net/http's TimeFormat.
const timeFormat = "Mon, 02 Jan 2006 15:04:05 GMT"

// statusText is the reason phrase of a status the service answers
// with, and "" for any other.
func statusText(code int) string {
	switch code {
	case statusOK:
		return "OK"
	case statusNoContent:
		return "No Content"
	case statusBadRequest:
		return "Bad Request"
	case statusNotFound:
		return "Not Found"
	case statusMethodNotAllowed:
		return "Method Not Allowed"
	case statusRequestHeaderFieldsTooLarge:
		return "Request Header Fields Too Large"
	case statusNotImplemented:
		return "Not Implemented"
	case statusServiceUnavailable:
		return "Service Unavailable"
	case statusHTTPVersionNotSupported:
		return "HTTP Version Not Supported"
	}
	return ""
}
