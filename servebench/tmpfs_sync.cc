// fsync as on tmpfs, for the benchmark's builds of the daemon and the
// load generator (linked with -Wl,--wrap=fsync, see CMakeLists.txt).
//
// The daemon fsyncs its WAL before every CONTROL ACK. A benchmark run may
// write only inside its checkout, which sits on the host's disk, where an
// fsync took 0.1-0.5 ms and moved with other tenants' I/O: it set the
// noise floor of every acknowledged request. On tmpfs, fsync returns
// after one system call; this does the same (fcntl F_GETFL checks the
// descriptor). Kill -9 recovery is unaffected: the written data stay in
// the page cache. The number of syncs stays exact in wal_syncs_per_ack.

#include <fcntl.h>

extern "C" int __wrap_fsync(int fd) {
  return ::fcntl(fd, F_GETFL) < 0 ? -1 : 0;
}
