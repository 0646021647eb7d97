(* The nuop-bench/1 artifact: written by `nuop experiment --json`,
   checked by `nuop artifact check` (and so by the CI alias).  The
   checker is total over the registry: an artifact that misses any
   registered experiment is refused. *)

let schema = "nuop-bench/1"

type run = { entry : Registry.entry; doc : Report.doc; seconds : float }

(* Wall time is measured around the document build (all the numeric work
   happens there; rendering is negligible); the same number lands in the
   artifact's "seconds" field and, under --trace / NUOP_TRACE, in the
   trace. *)
let run ?(attrs = []) cfg (entry : Registry.entry) =
  let doc, seconds =
    Obs.Span.timed
      ~attrs:(("experiment", entry.name) :: attrs)
      "experiment.run"
      (fun () -> entry.run cfg)
  in
  { entry; doc; seconds }

let to_string ~scale runs =
  let experiment r =
    Report.to_json ~name:r.entry.Registry.name ~description:r.entry.Registry.description
      ~seconds:r.seconds r.doc
  in
  Njson.to_string
    (Njson.Obj
       [
         ("schema", Njson.String schema);
         ("date", Njson.String (Obs.Clock.utc_date (Obs.Clock.now ())));
         ("scale", Njson.String scale);
         ("experiments", Njson.List (List.map experiment runs));
       ])
  ^ "\n"

let check text =
  let ( let* ) = Result.bind in
  let* json =
    Result.map_error (Printf.sprintf "does not parse as JSON (%s)")
      (Njson.of_string_result text)
  in
  let string_field key j =
    match Njson.member key j with
    | Some (Njson.String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" key)
  in
  let* s = string_field "schema" json in
  let* () =
    if s = schema then Ok () else Error (Printf.sprintf "schema %S, want %S" s schema)
  in
  let* _ = string_field "date" json in
  let* _ = string_field "scale" json in
  let* entries =
    Option.to_result ~none:"missing \"experiments\" list"
      (Option.bind (Njson.member "experiments" json) Njson.to_list)
  in
  let entry_name e =
    let* name = string_field "name" e in
    match Option.bind (Njson.member "seconds" e) Njson.to_float_value with
    | Some _ -> Ok name
    | None -> Error (Printf.sprintf "experiment %s has no \"seconds\"" name)
  in
  let* found =
    List.fold_right
      (fun e acc ->
        let* acc = acc in
        let* name = entry_name e in
        Ok (name :: acc))
      entries (Ok [])
  in
  match List.filter (fun n -> not (List.mem n found)) Registry.names with
  | [] -> Ok (List.length found)
  | missing -> Error ("missing experiments: " ^ String.concat ", " missing)

let check_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> check text
  | exception Sys_error m -> Error m
