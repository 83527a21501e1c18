(** Persistent content-addressed artifact backend.

    Stores one file per artifact under [<root>/<stage>/<digest-hex>],
    wrapped in a small versioned envelope (magic, format version,
    builder application, payload checksum, payload).  Writes go through
    a unique temp file plus [rename], so readers never observe a
    half-written entry and the first completed write wins; readers
    treat any defect (missing, truncated, bad magic/version/checksum)
    as a cache miss.  See the implementation header for the exact
    layout and the versioning policy. *)

val backend : ?chaos:Chaos.config -> root:string -> unit -> Artifact.backend
(** A backend rooted at [root] (created if missing).  Multiple
    processes and stores may share one root concurrently.

    Opening the backend sweeps stale [*.tmp.*] orphans left under
    [root] by writers that crashed between temp-write and rename —
    without the sweep they would leak forever.  A live writer's temp
    file can be swept too (the pid in the name only namespaces
    {e concurrent} processes); that writer's [rename] then fails and
    degrades to a skipped write, which first-put-wins tolerates.

    [chaos] (default {!Chaos.none}) injects the torn-envelope fault
    plane: a [put] whose [(stage, digest)] site rolls
    {!Chaos.store_torn} truncates the envelope bytes on disk, below
    the payload checksum, so every later read detects the tear and
    degrades to a miss — modelling a partial write that the crash-safe
    rename protocol cannot see.  The other store planes (read errors,
    dropped writes, latency) live above the envelope; inject them with
    {!Chaos.wrap_backend}.

    Writes are crash-safe and first-put-wins, with one exception: an
    entry whose complete header names another format version is
    replaced, so a store written by an older build warms again instead
    of missing forever. *)
