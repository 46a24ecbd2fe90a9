"""repro.server — multi-session concurrency on top of the TINTIN core.

Three pieces turn the single-staging-area reproduction into a
concurrent service:

* :class:`Session` / :class:`SessionManager` — each client owns a
  private staged update (a :class:`~repro.core.event_tables.StagedEvents`
  over ins/del tables outside the catalog, netted by the same code as
  the default session's capture), so no session ever observes
  another's uncommitted events;
* snapshot reads — ``session.query`` runs under the shared side of a
  read/write lock (:class:`ReadWriteLock`) against committed base
  state plus only the session's own staged events, merged at
  execution time as :class:`~repro.minidb.storage.TableOverlay`
  overlays (base tables are never touched; any number of readers run
  concurrently);
* :class:`CommitScheduler` — serializes validate-and-apply through a
  FIFO queue: a commit window runs the paper's safeCommit once per
  member, in arrival order — each update presented to the violation
  views as overlays on the global event tables — and the committed
  members' WAL records share one fsync (group commit).
"""

from .locks import ReadWriteLock
from .scheduler import CommitScheduler, SchedulerStats
from .session import Session, SessionManager

__all__ = [
    "CommitScheduler",
    "ReadWriteLock",
    "SchedulerStats",
    "Session",
    "SessionManager",
]
