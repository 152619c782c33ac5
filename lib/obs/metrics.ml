(* Typed metrics registry: counters and gauges, keyed by a dotted name
   ("pass.icf.folded", "sim.l1i_misses", ...).

   Naming convention (documented in DESIGN.md): lowercase dotted paths,
   first segment the owning subsystem (pass/profile/sim/rewrite/bench),
   counters named after the thing counted, never the unit.  A name is
   bound to one metric kind for the registry's lifetime; re-registering
   it with another kind raises [Invalid_argument] so type confusion is a
   bug at the recording site, not a silently corrupted manifest. *)

type value = Counter of int ref | Gauge of float ref

(* The mutex makes every recording and snapshot operation atomic, so a
   registry shared across domains never tears a count.  The parallel
   rewriter still prefers one registry per domain (uncontended locks)
   merged at pool join; the lock is the safety net for stray shared
   writers, not the scaling strategy. *)
type t = { tbl : (string, value) Hashtbl.t; m : Mutex.t }

let create () = { tbl = Hashtbl.create 64; m = Mutex.create () }

let locked t f = Mutex.protect t.m f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"

let mismatch name v wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name v) wanted)

let incr t ?(by = 1) name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter r) -> r := !r + by
      | Some v -> mismatch name v "counter"
      | None -> Hashtbl.replace t.tbl name (Counter (ref by)))

let set t name x =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Gauge r) -> r := x
      | Some v -> mismatch name v "gauge"
      | None -> Hashtbl.replace t.tbl name (Gauge (ref x)))

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with Some (Counter r) -> !r | _ -> 0)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with Some (Gauge r) -> !r | _ -> 0.0)

(* Fold [other] into [into]: counters add, a gauge takes [other]'s (most
   recent) value.  Used to aggregate per-stage, per-domain or
   per-workload registries into one run-level registry.
   Only [into] is locked: [other] is expected to be quiescent at merge
   time (a finished shard), and locking both would risk a lock-order
   deadlock when two registries merge into each other concurrently. *)
let merge ~into other =
  locked into (fun () ->
      Hashtbl.iter
        (fun name v ->
          match (Hashtbl.find_opt into.tbl name, v) with
          | None, Counter r -> Hashtbl.replace into.tbl name (Counter (ref !r))
          | None, Gauge r -> Hashtbl.replace into.tbl name (Gauge (ref !r))
          | Some (Counter a), Counter b -> a := !a + !b
          | Some (Gauge a), Gauge b -> a := !b
          | Some existing, _ -> mismatch name existing (kind_name v))
        other.tbl)

(* Snapshot of every counter, for computing per-span deltas. *)
let counters t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name v acc ->
          match v with Counter r -> (name, !r) :: acc | _ -> acc)
        t.tbl [])

(* Snapshot of every gauge, sorted by name. *)
let gauges t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name v acc -> match v with Gauge r -> (name, !r) :: acc | _ -> acc)
        t.tbl [])
  |> List.sort compare

(* Counters that moved since [before] (a [counters] snapshot). *)
let counter_delta t ~before =
  let old = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace old k v) before;
  counters t
  |> List.filter_map (fun (k, v) ->
         let prev = Option.value ~default:0 (Hashtbl.find_opt old k) in
         if v <> prev then Some (k, v - prev) else None)
  |> List.sort compare

let sorted_bindings t =
  locked t (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t : Json.t =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let body =
           match v with
           | Counter r -> [ ("type", Json.String "counter"); ("value", Json.Int !r) ]
           | Gauge r -> [ ("type", Json.String "gauge"); ("value", Json.Float !r) ]
         in
         (name, Json.Obj body))
       (sorted_bindings t))
