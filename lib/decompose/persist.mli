(** Versioned on-disk store for fidelity curves (schema [nuop-curves/1]).

    The expensive object in every expressivity score is the per-layer
    fidelity curve of a (unitary, gate type, optimizer options) triple —
    a pure function of its {!Cache.make_key} fingerprint.  This module
    persists those curves across processes so a second experiment run
    (the [design] search, the drift study, ...) starts warm instead of
    recomputing the whole corpus.

    Saves are atomic (write to a temporary file in the same directory,
    then rename), so a crash mid-save can never destroy the previous
    snapshot.  Loads are corruption-tolerant by construction: any
    structural problem — missing file, truncated bytes, a different
    schema version, garbage — comes back as [Error reason], never as an
    escaping exception.  Floats round-trip exactly ({!Njson} emits the
    shortest representation that re-parses to the same bits), so a
    compile warmed from disk is byte-for-byte identical to a cold one. *)

type curve = (int * float array * float) array
(** One fidelity curve: best [(layers, params, F_d)] per layer count,
    exactly as produced by {!Nuop.fd_curve}. *)

val schema : string
(** ["nuop-curves/1"].  Bumped whenever the entry layout changes; a file
    carrying any other value loads as [Error _]. *)

val save : string -> (string * curve) list -> unit
(** [save path entries] atomically replaces [path] with a snapshot of
    [entries] (cache key, curve).  @raise Sys_error if the directory is
    not writable. *)

val load : string -> ((string * curve) list, string) result
(** [load path] parses a snapshot back.  Any failure — unreadable file,
    malformed JSON, wrong schema version, entries of the wrong shape —
    yields [Error reason]; no exception escapes. *)
