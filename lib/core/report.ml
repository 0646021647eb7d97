(* Typed experiment report documents.

   Every experiment driver builds a [doc] — a list of typed blocks plus
   headline metrics — instead of printing as it goes.  Two renderers
   consume the same document:

   - [render_text] reproduces the historical terminal output byte for
     byte (locked by the fig11 golden test), so the refactor is invisible
     to anyone reading the bench logs;
   - [to_json] emits the machine-readable form used by
     `bench all --json` / `nuop experiment --json` to produce BENCH
     artifacts that track the reproduction over time.

   [block_to_string] renders one block through the same text renderer
   for the CLI and service paths that print a single table. *)

type block =
  | Heading of string
  | Subheading of string
  | Table of { header : string list; rows : string list list }
  | Text of string  (** verbatim free text, printed as-is *)
  | Heatmap of {
      theta_axis : float list;
      phi_axis : float list;
      cells : float list list;  (** row [i] belongs to [theta_axis] element [i] *)
    }

type doc = { blocks : block list; metrics : (string * float) list }

(* ---------- shared formatting helpers ---------- *)

let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let f4 v = Printf.sprintf "%.4f" v

(* One heatmap cell: mean gate count rendered as a single digit (counts
   above 9 are clamped). *)
let heat_digit v =
  if Float.is_nan v then "." else string_of_int (min 9 (int_of_float (Float.round v)))

(* ---------- text renderer ---------- *)

let render_block buf block =
  let bpf fmt = Printf.bprintf buf fmt in
  match block with
  | Heading title ->
    let line = String.make (String.length title) '=' in
    bpf "\n%s\n%s\n" title line
  | Subheading title -> bpf "\n-- %s --\n" title
  | Text s -> Buffer.add_string buf s
  | Table { header; rows } ->
    let all = header :: rows in
    let cols = List.length header in
    List.iter (fun r -> assert (List.length r = cols)) rows;
    let widths = Array.make cols 0 in
    List.iter
      (List.iteri (fun c cell -> widths.(c) <- max widths.(c) (String.length cell)))
      all;
    let render_row r =
      List.iteri
        (fun c cell ->
          let pad = widths.(c) - String.length cell in
          bpf "%s%s  " cell (String.make pad ' '))
        r;
      bpf "\n"
    in
    render_row header;
    List.iteri (fun c _ -> bpf "%s  " (String.make widths.(c) '-')) header;
    bpf "\n";
    List.iter render_row rows
  | Heatmap { theta_axis; phi_axis; cells } ->
    (* rows: theta descending so the origin is bottom-left like the paper *)
    List.iter
      (fun (theta, row) ->
        bpf "%5.2f | " theta;
        List.iter (fun v -> bpf "%s " (heat_digit v)) row;
        bpf "\n")
      (List.rev (List.combine theta_axis cells));
    bpf "      +-%s\n" (String.make (2 * List.length phi_axis) '-');
    bpf "        phi: %.2f .. %.2f (theta on y)\n" (List.hd phi_axis)
      (List.nth phi_axis (List.length phi_axis - 1))

let render_text doc =
  let buf = Buffer.create 4096 in
  List.iter (render_block buf) doc.blocks;
  Buffer.contents buf

let block_to_string block =
  let buf = Buffer.create 256 in
  render_block buf block;
  Buffer.contents buf

let print doc =
  print_string (render_text doc);
  flush stdout

(* ---------- JSON renderer ---------- *)

let json_strings items = Njson.List (List.map (fun s -> Njson.String s) items)
let json_floats items = Njson.List (List.map (fun v -> Njson.Float v) items)

let block_to_json = function
  | Heading s -> Njson.Obj [ ("type", Njson.String "heading"); ("text", Njson.String s) ]
  | Subheading s ->
    Njson.Obj [ ("type", Njson.String "subheading"); ("text", Njson.String s) ]
  | Text s -> Njson.Obj [ ("type", Njson.String "text"); ("text", Njson.String s) ]
  | Table { header; rows } ->
    Njson.Obj
      [
        ("type", Njson.String "table");
        ("header", json_strings header);
        ("rows", Njson.List (List.map json_strings rows));
      ]
  | Heatmap { theta_axis; phi_axis; cells } ->
    Njson.Obj
      [
        ("type", Njson.String "heatmap");
        ("theta_axis", json_floats theta_axis);
        ("phi_axis", json_floats phi_axis);
        ("cells", Njson.List (List.map json_floats cells));
      ]

let to_json ?name ?description ?seconds doc =
  let optional key v f = match v with None -> [] | Some v -> [ (key, f v) ] in
  Njson.Obj
    (optional "name" name (fun s -> Njson.String s)
    @ optional "description" description (fun s -> Njson.String s)
    @ optional "seconds" seconds (fun s -> Njson.Float s)
    @ [
        ( "metrics",
          Njson.Obj (List.map (fun (k, v) -> (k, Njson.Float v)) doc.metrics) );
        ("blocks", Njson.List (List.map block_to_json doc.blocks));
      ])

(* ---------- document builder ---------- *)

module Builder = struct
  (* blocks in reverse order; consecutive Text fragments are merged so the
     JSON form stays readable (merging cannot change the text rendering,
     which is plain concatenation) *)
  type t = {
    mutable rev_blocks : block list;
    mutable rev_metrics : (string * float) list;
  }

  let create () = { rev_blocks = []; rev_metrics = [] }

  let add b block = b.rev_blocks <- block :: b.rev_blocks

  let heading b title = add b (Heading title)
  let subheading b title = add b (Subheading title)
  let table b ~header rows = add b (Table { header; rows })

  let text b s =
    match b.rev_blocks with
    | Text prev :: rest -> b.rev_blocks <- Text (prev ^ s) :: rest
    | _ -> add b (Text s)

  let textf b fmt = Printf.ksprintf (text b) fmt

  let heatmap b ~theta_axis ~phi_axis ~cell =
    let cells =
      List.map (fun theta -> List.map (fun phi -> cell ~theta ~phi) phi_axis) theta_axis
    in
    add b (Heatmap { theta_axis; phi_axis; cells })

  let metric b name value = b.rev_metrics <- (name, value) :: b.rev_metrics

  let doc b = { blocks = List.rev b.rev_blocks; metrics = List.rev b.rev_metrics }
end

(* Collision-free artifact naming: BENCH_<date>.json from the same UTC
   day must never silently clobber an earlier run, so the second run of
   a day becomes BENCH_<date>-2.json, the third -3, and so on. *)
let fresh_path path =
  if not (Sys.file_exists path) then path
  else begin
    let dir = Filename.dirname path and base = Filename.basename path in
    let stem = Filename.remove_extension base in
    let ext = Filename.extension base in
    let rec next n =
      let candidate = Filename.concat dir (Printf.sprintf "%s-%d%s" stem n ext) in
      if Sys.file_exists candidate then next (n + 1) else candidate
    in
    next 2
  end
