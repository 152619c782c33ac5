(* Manifest/record comparison: the engine behind `bstat`.

   Works on any manifest-family JSON value — a full `obolt-manifest/1`
   document or a compact `obolt-history/1` record.  Every numeric leaf
   is flattened to a dotted path ("metrics.sim.cycles.value",
   "dyno_stats.after.taken_branches", "spans.bolt", "wall_s", ...), so
   diffing is schema-agnostic: two records diff over the intersection of
   their paths, and the regression gate expresses thresholds as
   (path-glob, direction, percent) rules over the same namespace. *)

(* ---- compatibility ---- *)

let known_schemas = [ "obolt-manifest"; "obolt-history" ]

let schema_of (j : Json.t) : string =
  Option.value ~default:"" (Json.get_string (Json.member "schema" j))

let family s =
  match String.rindex_opt s '/' with Some i -> String.sub s 0 i | None -> s

(* Two records are diffable when both carry a known manifest-family
   schema at the same version.  A full manifest and a history record are
   deliberately cross-comparable (the history record is a projection of
   the manifest).  [Error] carries a structured, human-readable
   diagnostic naming both schemas. *)
let compatible (a : Json.t) (b : Json.t) : (unit, string) result =
  let check j =
    let s = schema_of j in
    if s = "" then Error "record carries no schema field (not a manifest?)"
    else if not (List.mem (family s) known_schemas) then
      Error (Printf.sprintf "unknown schema %S" s)
    else
      match Manifest.version_of j with
      | Some v -> Ok (s, v)
      | None -> Error (Printf.sprintf "schema %S carries no version" s)
  in
  match (check a, check b) with
  | Error e, _ -> Error (Printf.sprintf "first record: %s" e)
  | _, Error e -> Error (Printf.sprintf "second record: %s" e)
  | Ok (sa, va), Ok (sb, vb) ->
      if va <> vb then
        Error
          (Printf.sprintf
             "version mismatch: first is %s (version %d), second is %s \
              (version %d)"
             sa va sb vb)
      else Ok ()

(* ---- flattening ---- *)

(* Numeric leaves only: Int and Float as themselves, Bool as 0/1 (so
   behaviour flags can gate), everything else skipped.  The full trace
   tree and event log are deliberately excluded — pass wall-times are
   read from the aggregated "spans" table of history records, or
   aggregated here for full manifests. *)
let flatten (j : Json.t) : (string * float) list =
  let out = ref [] in
  let add path v = out := (path, v) :: !out in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix = function
    | Json.Int i -> add prefix (float_of_int i)
    | Json.Float f -> if Float.is_finite f then add prefix f
    | Json.Bool b -> add prefix (if b then 1.0 else 0.0)
    | Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            (* trace/events are bulk (spans are aggregated separately),
               argv and meta are identity — epoch_s differs every run
               and would show as a changed row in every diff *)
            if
              prefix = ""
              && (k = "trace" || k = "events" || k = "argv" || k = "meta")
            then ()
            else go (join prefix k) v)
          fields
    | Json.List items -> List.iteri (fun i v -> go (join prefix (string_of_int i)) v) items
    | Json.Null | Json.String _ -> ()
  in
  go "" j;
  (* a full manifest carries no "spans" table: derive one from its trace
     so pass wall-times diff the same way in both representations *)
  let spans =
    match Json.member "spans" j with
    | Some _ -> []
    | None ->
        (match Json.member "trace" j with
        | Some tr ->
            ("wall_s",
             Option.value ~default:0.0
               (Json.get_float (Json.member "dur_s" tr)))
            :: List.map
                 (fun (n, d) -> ("spans." ^ n, d))
                 (History.span_table j)
        | None -> [])
  in
  List.sort compare (spans @ !out)

(* ---- diff ---- *)

type row = {
  r_path : string;
  r_a : float option;
  r_b : float option;
  r_delta_pct : float option; (* None when either side is missing or a=0 *)
}

let delta_pct a b =
  if a = 0.0 then None else Some (100.0 *. (b -. a) /. Float.abs a)

let diff_rows (a : Json.t) (b : Json.t) : row list =
  let fa = flatten a and fb = flatten b in
  let ta = Hashtbl.create 64 and tb = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace ta k v) fa;
  List.iter (fun (k, v) -> Hashtbl.replace tb k v) fb;
  let paths =
    List.sort_uniq compare (List.map fst fa @ List.map fst fb)
  in
  List.map
    (fun p ->
      let va = Hashtbl.find_opt ta p and vb = Hashtbl.find_opt tb p in
      {
        r_path = p;
        r_a = va;
        r_b = vb;
        r_delta_pct =
          (match (va, vb) with
          | Some x, Some y -> delta_pct x y
          | _ -> None);
      })
    paths

let changed (rows : row list) : row list =
  List.filter (fun r -> r.r_a <> r.r_b) rows

(* Render a float like the numbers it came from: integers without a
   fraction, small rates with enough precision to matter. *)
let pp_num ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then Fmt.pf ppf "%.0f" v
  else if Float.abs v < 10.0 then Fmt.pf ppf "%.4f" v
  else Fmt.pf ppf "%.2f" v

let side_str = function
  | Some v -> Fmt.str "%a" pp_num v
  | None -> "-"

let pp_rows ?(labels = ("a", "b")) ppf (rows : row list) =
  let la, lb = labels in
  let width =
    List.fold_left (fun w r -> max w (String.length r.r_path)) 24 rows
  in
  Fmt.pf ppf "  %-*s %14s %14s %9s@." width "metric" la lb "delta";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-*s %14s %14s %9s@." width r.r_path (side_str r.r_a)
        (side_str r.r_b)
        (match r.r_delta_pct with
        | Some d -> Printf.sprintf "%+.1f%%" d
        | None -> (
            match (r.r_a, r.r_b) with
            | None, Some _ -> "new"
            | Some _, None -> "gone"
            | _ -> "-")))
    rows

(* ---- regression rules ---- *)

type direction = Up_is_bad | Down_is_bad

type rule = {
  ru_path : string; (* glob over dotted paths: '*' matches any run *)
  ru_dir : direction;
  ru_pct : float; (* allowed movement in the bad direction, percent *)
}

(* "PATH=+10" — regression when PATH rises more than 10% over baseline;
   "PATH=-5"  — regression when PATH falls more than 5% below baseline. *)
let parse_rule s : (rule, string) result =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad threshold %S (want PATH=+PCT or PATH=-PCT)" s)
  | Some i ->
      let path = String.sub s 0 i in
      let spec = String.sub s (i + 1) (String.length s - i - 1) in
      let dir, mag =
        if String.length spec > 0 && spec.[0] = '-' then
          (Down_is_bad, String.sub spec 1 (String.length spec - 1))
        else if String.length spec > 0 && spec.[0] = '+' then
          (Up_is_bad, String.sub spec 1 (String.length spec - 1))
        else (Up_is_bad, spec)
      in
      (match float_of_string_opt mag with
      | Some pct when pct >= 0.0 && path <> "" -> Ok { ru_path = path; ru_dir = dir; ru_pct = pct }
      | _ -> Error (Printf.sprintf "bad threshold %S (want PATH=+PCT or PATH=-PCT)" s))

let pp_rule ppf r =
  Fmt.pf ppf "%s=%c%g" r.ru_path
    (match r.ru_dir with Up_is_bad -> '+' | Down_is_bad -> '-')
    r.ru_pct

(* Tiny glob: '*' matches any (possibly empty) substring. *)
let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pat.[pi] with
      | '*' ->
          let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

(* Conservative defaults for the bench/CI gate: wall time and simulated
   cycles may not climb, recovery/coverage may not collapse, and a
   behaviour-mismatch flag dropping from 1 to 0 always fires (any drop
   below 100% of baseline). *)
let default_rules : rule list =
  [
    { ru_path = "wall_s"; ru_dir = Up_is_bad; ru_pct = 30.0 };
    { ru_path = "metrics.sim.cycles.value"; ru_dir = Up_is_bad; ru_pct = 10.0 };
    { ru_path = "*dyno_stats.after.cycles"; ru_dir = Up_is_bad; ru_pct = 10.0 };
    { ru_path = "*dyno_stats.after.taken_branches"; ru_dir = Up_is_bad; ru_pct = 10.0 };
    { ru_path = "*recovery.rate"; ru_dir = Down_is_bad; ru_pct = 10.0 };
    { ru_path = "fleet.coverage_pct"; ru_dir = Down_is_bad; ru_pct = 20.0 };
    { ru_path = "*behaviour_ok"; ru_dir = Down_is_bad; ru_pct = 1.0 };
    (* continuous-optimization service budgets (boltd manifests): the
       sketch may not start thrashing (evictions are deterministic for a
       fixed tape/config, so a jump is a real retention regression), and
       the memory-bound flag dropping from 1 to 0 always fires. *)
    { ru_path = "service.sketch_evictions"; ru_dir = Up_is_bad; ru_pct = 50.0 };
    { ru_path = "service.*within_budget"; ru_dir = Down_is_bad; ru_pct = 1.0 };
  ]

(* Rules whose glob matches no metric path of [record] — a budget rule
   that can never fire, usually a typo'd path.  bstat warns on these so
   a silently-dead gate is visible. *)
let unmatched_rules ~(rules : rule list) (record : Json.t) : rule list =
  let paths = List.map fst (flatten record) in
  List.filter
    (fun r -> not (List.exists (glob_match r.ru_path) paths))
    rules

(* ---- the check itself ---- *)

type verdict = {
  v_rule : rule;
  v_path : string;
  v_baseline : float; (* mean over the baseline window *)
  v_runs : int; (* baseline runs that carried the metric *)
  v_latest : float;
  v_change_pct : float;
}

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Check [latest] against the rolling baseline: for every rule, every
   path of [latest] matching it is compared to the mean of that path
   over the baseline records that carry it.  A path absent from every
   baseline record is new — nothing to regress against — and a baseline
   mean of exactly 0 only fires for Up_is_bad when the latest value is
   positive (percent change from zero is undefined; any appearance of a
   cost where there was none counts as worse). *)
let check ~(rules : rule list) ~(baseline : Json.t list) (latest : Json.t) :
    verdict list =
  let base_flat = List.map flatten baseline in
  let latest_flat = flatten latest in
  List.concat_map
    (fun rule ->
      List.filter_map
        (fun (path, v) ->
          if not (glob_match rule.ru_path path) then None
          else
            let samples =
              List.filter_map (fun f -> List.assoc_opt path f) base_flat
            in
            if samples = [] then None
            else
              let b = mean samples in
              let change =
                if b <> 0.0 then 100.0 *. (v -. b) /. Float.abs b
                else if v > 0.0 then 100.0
                else if v < 0.0 then -100.0
                else 0.0
              in
              let bad =
                match rule.ru_dir with
                | Up_is_bad -> change > rule.ru_pct
                | Down_is_bad -> change < -.rule.ru_pct
              in
              if bad then
                Some
                  {
                    v_rule = rule;
                    v_path = path;
                    v_baseline = b;
                    v_runs = List.length samples;
                    v_latest = v;
                    v_change_pct = change;
                  }
              else None)
        latest_flat)
    rules

let pp_verdict ppf v =
  Fmt.pf ppf
    "REGRESSION %s: %a -> %a (%+.1f%% vs mean of %d baseline run%s, \
     threshold %a)"
    v.v_path pp_num v.v_baseline pp_num v.v_latest v.v_change_pct v.v_runs
    (if v.v_runs = 1 then "" else "s")
    pp_rule v.v_rule
