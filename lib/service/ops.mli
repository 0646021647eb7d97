(** The service's op implementations, and the render helpers they share
    with the one-shot CLI.

    Byte-identity by construction: [nuop compile]/[nuop study]/[nuop
    devices list] print exactly the strings these functions return, and
    the served [compile]/[score]/[devices] results embed the same
    strings in their ["output"] field — so a served response equals the
    one-shot CLI output whatever worker produced it and in whatever
    order requests completed. *)

val resolve_device : ?qubits:int -> string -> Device.t
(** The CLI's [--device] spec: a registry name (case-insensitive) or a
    path to a JSON snapshot written by [nuop devices dump].  Served
    requests do not come through here: they name registry devices
    only. *)

val benchmark_circuit : app:string -> qubits:int -> seed:int -> Qcir.Circuit.t
(** The generator spec shared by compile, [cache warm] and the service:
    one benchmark circuit ([qv], [qaoa], [qft], [fh]) at the given width
    and seed.  Raises [Invalid_argument] naming [qubits] below the app's
    minimum width (2 for [qv]/[qaoa], 1 for [qft]). *)

val study_metric : string -> Core.Study.metric
(** The metric each benchmark app is scored under ([qv] → Hop, [qaoa] →
    XED, [qft] → state fidelity, [fh] → XEB). *)

val study_circuits :
  app:string -> qubits:int -> count:int -> seed:int -> Qcir.Circuit.t list
(** The circuit suite [nuop study] evaluates for one app.  Raises
    [Invalid_argument] naming [count] below 1 or [qubits] below the
    app's minimum width. *)

val compile_text :
  ?optimize:bool ->
  ?trace_passes:bool ->
  ?print_schedule:bool ->
  ?print_circuit:bool ->
  device:Device.t ->
  isa:Isa.Set.t ->
  isa_name:string ->
  app:string ->
  Qcir.Circuit.t ->
  string * Compiler.Pipeline.compiled
(** Compile through the pass manager and render the exact [nuop
    compile] stdout text (headline lines, then the optional pass-metrics
    table, schedule timeline and circuit rendering). *)

val study_text :
  device:Device.t ->
  isa:Isa.Set.t ->
  metric:Core.Study.metric ->
  Qcir.Circuit.t list ->
  string * Core.Study.result
(** Evaluate a suite and render the exact [nuop study] results table. *)

val devices_list_text : unit -> string
(** The exact [nuop devices list] table. *)

val execute : Protocol.request -> (Njson.t, Protocol.err) result
(** Run one request's op (everything except [stats], which only the
    server can answer).  Total: malformed parameters, unknown devices /
    sets / apps and bad QASM come back as typed [Bad_request] errors,
    never exceptions.  The [device] field names a registry device; a
    file path is an unknown device, so a client cannot make the server
    read files. *)
