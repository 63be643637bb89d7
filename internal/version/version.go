// Package version carries the build identity every binary reports
// (-version) and clusterd exports (/healthz, clusterd_build_info).
// Release builds stamp it via
//
//	go build -ldflags "-X clustersmt/internal/version.Version=v1.2.3"
//
// and unstamped builds fall back to "dev" plus whatever VCS metadata
// the toolchain embedded.
package version

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Version is the ldflags-stamped release identifier ("dev" when the
// build was not stamped).
var Version = "dev"

// String returns the full build identity: version, VCS revision when
// embedded (abbreviated, "+dirty" for modified trees), and the Go
// toolchain.
func String() string {
	rev := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		var commit string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if commit != "" {
			if len(commit) > 12 {
				commit = commit[:12]
			}
			rev = " " + commit
			if dirty {
				rev += "+dirty"
			}
		}
	}
	return fmt.Sprintf("clustersmt %s%s %s", Version, rev, runtime.Version())
}
