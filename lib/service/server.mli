(** The resident compilation server.

    Requests (NDJSON lines, schema [nuop-rpc/1]) flow through a bounded
    job {!Queue} into a fixed set of worker domains that share the
    process-wide warm {!Decompose.Cache}; each accepted request is
    answered exactly once, on whichever worker ran it:

    - a full queue answers [overloaded] immediately (backpressure —
      accepted work is never dropped);
    - a request whose [deadline_ms] elapses answers [timeout], whether
      it expired waiting in the queue or during execution, and the
      worker slot is reclaimed either way;
    - an op that raises answers [bad_request] for [Invalid_argument]
      and [internal] for any other exception;
    - {!drain} (SIGTERM/EOF in the transports) stops intake, lets the
      workers finish every accepted job, then joins them.

    Every request runs under an [Obs.Span] ("service.request", attrs
    op/outcome) and accepted/completed/rejected/timeout counters, so
    [--trace] yields a per-request timeline.

    Workers execute jobs under {!Concurrent.Domain_pool.sequential_scope}, so the
    compile stack's inner parallel maps fall back to their sequential
    strategy instead of oversubscribing the machine — results are
    unchanged (every pool client is pool-size invariant), which is why
    served responses are byte-identical to one-shot CLI output at any
    worker count. *)

type config = {
  queue_depth : int;  (** bounded queue capacity (default 64) *)
  workers : int;  (** worker domains (default {!Concurrent.Domain_pool.default_domains}) *)
}

val default_config : config

type t

val create :
  ?exec:(Protocol.request -> (Njson.t, Protocol.err) result) -> config -> t
(** Spawn the worker domains.  [exec] (default {!Ops.execute}) runs each
    non-[stats] job — tests inject failing or blocking executors here.
    Exceptions from [exec] are classified by the server:
    [Invalid_argument] answers [bad_request], anything else answers
    [internal]. *)

val submit_line : t -> reply:(string -> unit) -> string -> unit
(** Submit one raw request line.  [reply] is invoked with exactly one
    response line — synchronously for protocol errors, overload and
    drain refusals, from a worker domain otherwise — so it must be
    thread-safe. *)

val drain : t -> unit
(** Stop accepting, finish every accepted job, join the workers and
    flush the telemetry sink.  Idempotent; concurrent callers block
    until the drain completes. *)

val draining : t -> bool

val stats_json : t -> Njson.t
(** The [stats] op's result document: queue depth/capacity, in-flight
    and worker counts, accepted/completed/rejected/timeout totals, and
    the shared decomposition-cache statistics. *)

(** {2 Transports} *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** NDJSON loop: one request per input line, one response per output
    line (mutex-serialized, flushed).  Returns — after draining — on
    EOF. *)

val serve_socket : t -> string -> unit
(** Listen on a Unix-domain socket; each connection speaks the same
    NDJSON protocol (one reader thread per connection).  SIGTERM/SIGINT
    stop the accept loop and drain; the socket file is unlinked on the
    way out. *)
