(* Reference implementations, kept verbatim: for the iocore parity suite,
   the original per-byte Buf primitives and the split-based fdata parser
   and Printf emitter; for the ICF suite, the all-functions folding loop;
   for the sim suite, the division-indexed LRU cache and the
   per-instruction simulator loop; for the asm-link,
   stale and dataflow-emit suites, the chunk collector, the fingerprint
   stamp, the assembler, the emitter and the CFG builder as they were
   before their linear-time rewrites; for the profile-hfsort suite, the
   name-keyed profile readers of match-profile, ICP and
   reorder-functions; for the layout suite, the tuple-keyed layout layer
   and the string-keyed HFSort call graph and orders.  Production code
   is checked against these independent implementations rather than
   against itself. *)

(* The original per-byte reader/writer primitives (modulo the reader's
   [limit] field replacing [String.length]). *)
module Buf = struct
  open Bolt_obj.Buf

  type lwriter = Buffer.t

  let writer () = Buffer.create 4096

  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    u8 b v;
    u8 b (v lsr 8);
    u8 b (v lsr 16);
    u8 b (v lsr 24)

  let i64 b v =
    let v64 = Int64.of_int v in
    for i = 0 to 7 do
      u8 b (Int64.to_int (Int64.shift_right_logical v64 (8 * i)) land 0xff)
    done

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let bytes b by =
    u32 b (Bytes.length by);
    Buffer.add_bytes b by

  let list b f xs =
    u32 b (List.length xs);
    List.iter (f b) xs

  let contents = Buffer.contents

  let r_u8 r =
    need r 1;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let r_u32 r =
    let a = r_u8 r in
    let b = r_u8 r in
    let c = r_u8 r in
    let d = r_u8 r in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let r_i64 r =
    let v = ref 0L in
    need r 8;
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code r.data.[r.pos + i]))
    done;
    r.pos <- r.pos + 8;
    Int64.to_int !v

  let r_str r =
    let n = r_u32 r in
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let r_bytes r =
    let n = r_u32 r in
    need r n;
    let b = Bytes.of_string (String.sub r.data r.pos n) in
    r.pos <- r.pos + n;
    b

  let r_list r f =
    let n = r_u32 r in
    List.init n (fun _ -> f r)
end

open Bolt_profile.Fdata

(* Malformed lines raise [Reject]; [parse_legacy] turns that into a
   warning (lenient) or [Bad_format] (strict). *)
exception Reject of string

let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> raise (Reject (Printf.sprintf "%s is not an integer: %s" what s))

let count_field what s =
  match Int64.of_string_opt s with
  | Some v when v >= 0L -> v
  | Some v -> raise (Reject (Printf.sprintf "%s is negative: %Ld" what v))
  | None -> raise (Reject (Printf.sprintf "%s is not an integer: %s" what s))

let non_negative what v =
  if v < 0 then raise (Reject (Printf.sprintf "%s is negative: %d" what v));
  v

let hash_field what s =
  match Bolt_obj.Fingerprint.of_hex s with
  | Some v -> v
  | None -> raise (Reject (Printf.sprintf "%s is not a hex hash: %s" what s))

(* The original Printf emitter; [Fdata.to_string] must write the same
   bytes. *)
let to_string_legacy t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "mode %s\n" (if t.lbr then "lbr" else "sample"));
  (match t.header with
  | Some h ->
      if h.hd_host <> "" then Buffer.add_string b (Printf.sprintf "H host %s\n" h.hd_host);
      if h.hd_build_id <> "" then
        Buffer.add_string b (Printf.sprintf "H build-id %s\n" h.hd_build_id);
      if h.hd_timestamp <> 0 then
        Buffer.add_string b (Printf.sprintf "H timestamp %d\n" h.hd_timestamp);
      if h.hd_events <> 0L then
        Buffer.add_string b (Printf.sprintf "H events %Ld\n" h.hd_events);
      if h.hd_weight <> 1.0 then
        Buffer.add_string b (Printf.sprintf "H weight %h\n" h.hd_weight)
  | None -> ());
  (* G/GB: fingerprints of the profiled binary, for stale matching.  Old
     readers skip them as unknown tags; profiles without them just have
     no G lines. *)
  List.iter
    (fun (f : Bolt_obj.Fingerprint.func) ->
      Buffer.add_string b
        (Printf.sprintf "G %s %d %s %s %s\n" f.fp_func f.fp_size
           (Bolt_obj.Fingerprint.to_hex f.fp_opcode_hash)
           (Bolt_obj.Fingerprint.to_hex f.fp_cfg_hash)
           (if f.fp_calls = [] then "-" else String.concat "," f.fp_calls));
      List.iter
        (fun (blk : Bolt_obj.Fingerprint.block) ->
          Buffer.add_string b
            (Printf.sprintf "GB %s %d %d %s %s\n" f.fp_func blk.bk_off
               blk.bk_size
               (Bolt_obj.Fingerprint.to_hex blk.bk_opcode_hash)
               (Bolt_obj.Fingerprint.to_hex blk.bk_shape_hash)))
        f.fp_blocks)
    t.fingerprints;
  List.iter
    (fun x ->
      Buffer.add_string b
        (Printf.sprintf "B %s %d %s %d %Ld %Ld\n" x.br_from_func x.br_from_off
           x.br_to_func x.br_to_off x.br_count x.br_mispreds))
    t.branches;
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "F %s %d %d %Ld\n" r.rg_func r.rg_start r.rg_end r.rg_count))
    t.ranges;
  List.iter
    (fun s ->
      Buffer.add_string b (Printf.sprintf "S %s %d %Ld\n" s.sm_func s.sm_off s.sm_count))
    t.samples;
  Buffer.contents b

(* The original parser: [String.split_on_char] per line and per field.
   Warnings are uncapped. *)
let parse_legacy ?(strict = false) text : t * warning list =
  let branches = ref [] in
  let ranges = ref [] in
  let samples = ref [] in
  let lbr = ref true in
  let header = ref None in
  (* G lines open a fingerprint (in file order); GB lines append blocks
     to the most recently seen G of the same function *)
  let fp_order : string list ref = ref [] in
  let fp_tbl :
      (string, Bolt_obj.Fingerprint.func * Bolt_obj.Fingerprint.block list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let warnings = ref [] in
  let reject lineno line reason =
    if strict then raise (Bad_format (Printf.sprintf "line %d: %s: %s" lineno reason line));
    warnings := { w_line = lineno; w_text = line; w_reason = reason } :: !warnings
  in
  let set_header f = header := Some (f (Option.value ~default:no_header !header)) in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        (* tolerate CRLF profiles copied across systems *)
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      try
        match String.split_on_char ' ' line with
        | [ "mode"; "lbr" ] -> lbr := true
        | [ "mode"; "sample" ] -> lbr := false
        | [ "mode"; m ] -> raise (Reject (Printf.sprintf "unknown mode %s" m))
        | [ "H"; "host"; v ] -> set_header (fun h -> { h with hd_host = v })
        | [ "H"; "build-id"; v ] -> set_header (fun h -> { h with hd_build_id = v })
        | [ "H"; "timestamp"; v ] ->
            let ts = non_negative "timestamp" (int_field "timestamp" v) in
            set_header (fun h -> { h with hd_timestamp = ts })
        | [ "H"; "events"; v ] ->
            let ev = count_field "events" v in
            set_header (fun h -> { h with hd_events = ev })
        | [ "H"; "weight"; v ] -> (
            match float_of_string_opt v with
            | Some w when w >= 0.0 -> set_header (fun h -> { h with hd_weight = w })
            | _ -> raise (Reject (Printf.sprintf "weight is not a number: %s" v)))
        | [ "H"; k; _ ] -> raise (Reject (Printf.sprintf "unknown header key %s" k))
        | [ "B"; ff; fo; tf; to_; c; m ] ->
            branches :=
              {
                br_from_func = ff;
                br_from_off = non_negative "from offset" (int_field "from offset" fo);
                br_to_func = tf;
                br_to_off = non_negative "to offset" (int_field "to offset" to_);
                br_count = count_field "count" c;
                br_mispreds = count_field "mispredicts" m;
              }
              :: !branches
        | [ "F"; f; s; e; c ] ->
            let rg_start = non_negative "range start" (int_field "range start" s) in
            let rg_end = non_negative "range end" (int_field "range end" e) in
            if rg_end < rg_start then
              raise (Reject (Printf.sprintf "range end %d before start %d" rg_end rg_start));
            ranges :=
              { rg_func = f; rg_start; rg_end; rg_count = count_field "count" c }
              :: !ranges
        | [ "S"; f; o; c ] ->
            samples :=
              {
                sm_func = f;
                sm_off = non_negative "offset" (int_field "offset" o);
                sm_count = count_field "count" c;
              }
              :: !samples
        | [ "G"; f; sz; oh; ch; calls ] ->
            let fp =
              {
                Bolt_obj.Fingerprint.fp_func = f;
                fp_size = non_negative "size" (int_field "size" sz);
                fp_opcode_hash = hash_field "opcode hash" oh;
                fp_cfg_hash = hash_field "cfg hash" ch;
                fp_calls =
                  (if calls = "-" then []
                   else String.split_on_char ',' calls);
                fp_blocks = [];
              }
            in
            if not (Hashtbl.mem fp_tbl f) then fp_order := f :: !fp_order;
            Hashtbl.replace fp_tbl f (fp, ref [])
        | [ "GB"; f; off; sz; oh; sh ] -> (
            match Hashtbl.find_opt fp_tbl f with
            | None -> raise (Reject "GB record before its G record")
            | Some (_, blocks) ->
                blocks :=
                  {
                    Bolt_obj.Fingerprint.bk_off =
                      non_negative "block offset" (int_field "block offset" off);
                    bk_size = non_negative "block size" (int_field "block size" sz);
                    bk_opcode_hash = hash_field "block opcode hash" oh;
                    bk_shape_hash = hash_field "block shape hash" sh;
                  }
                  :: !blocks)
        | [] | [ "" ] -> ()
        | ("B" | "F" | "S" | "G" | "GB" | "mode" | "H") :: _ ->
            raise (Reject "wrong field count")
        | _ -> raise (Reject "unknown record tag")
      with Reject reason -> reject lineno line reason)
    lines;
  let total =
    List.fold_left (fun a (b : branch) -> sat_add a b.br_count) 0L !branches
    |> fun acc ->
    List.fold_left (fun a (s : sample) -> sat_add a s.sm_count) acc !samples
  in
  let fingerprints =
    List.rev_map
      (fun f ->
        let fp, blocks = Hashtbl.find fp_tbl f in
        { fp with Bolt_obj.Fingerprint.fp_blocks = List.rev !blocks })
      !fp_order
  in
  ( {
      lbr = !lbr;
      header = !header;
      branches = List.rev !branches;
      ranges = List.rev !ranges;
      samples = List.rev !samples;
      total_samples = total;
      fingerprints;
    },
    List.rev !warnings )

(* The ICF loop [Bolt_core.Icf.run] ran before shape buckets, kept
   verbatim: every round computes the [normalize] key of every simple,
   unfolded function.  Returns (functions folded, bytes saved). *)
let icf ctx =
  let open Bolt_core in
  let open Bfunc in
  let normalize = Icf.normalize in
  let folded_total = ref 0 in
  let bytes_saved = ref 0 in
  let canon_map : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec canon s =
    match Hashtbl.find_opt canon_map s with Some s' -> canon s' | None -> s
  in
  let pass () =
    let seen = Hashtbl.create 256 in
    let folded_now = ref 0 in
    List.iter
      (fun fb ->
        if fb.Bfunc.folded_into = None && fb.simple then begin
          let key = normalize canon fb in
          match Hashtbl.find_opt seen key with
          | Some survivor when survivor <> fb.fb_name ->
              fb.folded_into <- Some survivor;
              Hashtbl.replace canon_map fb.fb_name survivor;
              (match Context.func ctx survivor with
              | Some sf ->
                  sf.exec_count <- sf.exec_count + fb.exec_count;
                  sf.touched <- true
              | None -> ());
              incr folded_now;
              bytes_saved := !bytes_saved + fb.fb_size;
              fb.touched <- true
          | Some _ -> ()
          | None -> Hashtbl.add seen key fb.fb_name
        end)
      (Context.all_funcs ctx);
    !folded_now
  in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 5 do
    incr rounds;
    let f = pass () in
    folded_total := !folded_total + f;
    continue_ := f > 0
  done;
  (* retarget all call/tail-call references to survivors *)
  Context.iter_funcs ctx (fun fb ->
      let fix (i : minsn) =
        match i.op with
        | Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (s, a)) when canon s <> s ->
            i.op <- Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (canon s, a))
        | Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Sym (s, a), w) when canon s <> s ->
            i.op <- Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Sym (canon s, a), w)
        | Bolt_isa.Insn.Lea (r, Bolt_isa.Insn.Sym (s, a)) when canon s <> s ->
            i.op <- Bolt_isa.Insn.Lea (r, Bolt_isa.Insn.Sym (canon s, a))
        | _ -> ()
      in
      Array.iter (fun b -> List.iter fix b.insns) fb.blocks;
      List.iter fix fb.raw_insns;
      Array.iter
        (fun b ->
          match b.term with
          | T_condtail (c, fn, fall) when canon fn <> fn ->
              b.term <- T_condtail (c, canon fn, fall)
          | _ -> ())
        fb.blocks);
  Context.logf ctx "icf: %d functions folded, %d bytes saved" !folded_total !bytes_saved;
  (!folded_total, !bytes_saved)

(* The set-associative LRU cache [Bolt_sim.Cache] was before mask
   indexing, kept verbatim but for the access and miss counters: the set
   is [line mod sets] and the way search is a closure.  Returns true on
   hit; a miss installs the line. *)
module Cache = struct
  type t = {
    sets : int;
    assoc : int;
    line_bits : int;
    tags : int array;
    stamps : int array;
    mutable tick : int;
  }

  let create ~size ~line ~assoc =
    let line_bits =
      let rec lb n acc = if n <= 1 then acc else lb (n / 2) (acc + 1) in
      lb line 0
    in
    let sets = max 1 (size / (line * assoc)) in
    {
      sets;
      assoc;
      line_bits;
      tags = Array.make (sets * assoc) (-1);
      stamps = Array.make (sets * assoc) 0;
      tick = 0;
    }

  let access c addr =
    c.tick <- c.tick + 1;
    let line = addr lsr c.line_bits in
    let set = line mod c.sets in
    let base = set * c.assoc in
    let rec find i =
      if i >= c.assoc then -1
      else if c.tags.(base + i) = line then i
      else find (i + 1)
    in
    let hit = find 0 in
    if hit >= 0 then begin
      c.stamps.(base + hit) <- c.tick;
      true
    end
    else begin
      let victim = ref 0 in
      for i = 1 to c.assoc - 1 do
        if c.stamps.(base + i) < c.stamps.(base + !victim) then victim := i
      done;
      c.tags.(base + !victim) <- line;
      c.stamps.(base + !victim) <- c.tick;
      false
    end
end

(* The record accumulator [Bolt_profile.Fdata.accumulate] was before
   sort-and-fold, kept verbatim: one hashtable keyed on polymorphic
   variants of the record endpoints, then a polymorphic [List.sort
   compare] per record kind. *)
let accumulate feed t =
  let tbl = Hashtbl.create 256 in
  let bump k c m =
    match Hashtbl.find_opt tbl k with
    | Some (c0, m0) -> Hashtbl.replace tbl k (sat_add c0 c, sat_add m0 m)
    | None -> Hashtbl.add tbl k (c, m)
  in
  feed
    ~branch:(fun b ->
      bump (`B (b.br_from_func, b.br_from_off, b.br_to_func, b.br_to_off)) b.br_count
        b.br_mispreds)
    ~range:(fun r -> bump (`F (r.rg_func, r.rg_start, r.rg_end)) r.rg_count 0L)
    ~sample:(fun s -> bump (`S (s.sm_func, s.sm_off)) s.sm_count 0L);
  let branches = ref [] and ranges = ref [] and samples = ref [] in
  Hashtbl.iter
    (fun k (c, m) ->
      match k with
      | `B (ff, fo, tf, to_) ->
          branches :=
            {
              br_from_func = ff;
              br_from_off = fo;
              br_to_func = tf;
              br_to_off = to_;
              br_count = c;
              br_mispreds = m;
            }
            :: !branches
      | `F (f, s, e) -> ranges := { rg_func = f; rg_start = s; rg_end = e; rg_count = c } :: !ranges
      | `S (f, o) -> samples := { sm_func = f; sm_off = o; sm_count = c } :: !samples)
    tbl;
  let total =
    List.fold_left (fun a (b : branch) -> sat_add a b.br_count) 0L !branches
    |> fun acc -> List.fold_left (fun a (s : sample) -> sat_add a s.sm_count) acc !samples
  in
  {
    t with
    branches = List.sort compare !branches;
    ranges = List.sort compare !ranges;
    samples = List.sort compare !samples;
    total_samples = total;
    fingerprints = List.sort_uniq compare t.fingerprints;
  }

(* The service sketch [Bolt_service.Sketch] was before sorted per-host
   arrays, kept verbatim but for the fingerprint rule on supersession
   (a shard on a new revision takes its own table, even an empty one):
   three polymorphic hashtables per function entry, a [List.sort] of the
   host's entries for top-K and of every fleet entry for the budget,
   and one eviction counter bump per entry. *)
module Sketch = struct
  module Fdata = Bolt_profile.Fdata
  module Obs = Bolt_obs.Obs

  type entry = {
    e_func : string;
    mutable e_events : int64;
    mutable e_bytes : int;
    mutable e_branches : (int * string * int, int64 * int64) Hashtbl.t;
    mutable e_ranges : (int * int, int64) Hashtbl.t;
    mutable e_samples : (int, int64) Hashtbl.t;
  }

  type host_state = {
    hs_host : string;
    mutable hs_header : Fdata.header;
    mutable hs_lbr : bool;
    mutable hs_fingerprints : Bolt_obj.Fingerprint.t;
    mutable hs_entries : (string, entry) Hashtbl.t;
    mutable hs_bytes : int;
  }

  type t = {
    topk : int;
    budget : int;
    obs : Obs.t;
    hosts : (string, host_state) Hashtbl.t;
    mutable occupancy : int;
    mutable peak : int;
    mutable evictions : int;
    mutable evicted_events : int64;
    mutable malformed : int;
  }

  let host_base = 96
  let entry_base = 64
  let branch_cost tf = 56 + String.length tf
  let range_cost = 40
  let sample_cost = 32

  let create ?obs ~topk ~budget () =
    let obs = match obs with Some o -> o | None -> Obs.null () in
    {
      topk = max 1 topk;
      budget = max 1 budget;
      obs;
      hosts = Hashtbl.create 64;
      occupancy = 0;
      peak = 0;
      evictions = 0;
      evicted_events = 0L;
      malformed = 0;
    }

  let entry_of func =
    {
      e_func = func;
      e_events = 0L;
      e_bytes = entry_base + String.length func;
      e_branches = Hashtbl.create 8;
      e_ranges = Hashtbl.create 4;
      e_samples = Hashtbl.create 4;
    }

  let evict_entry t (hs : host_state) (e : entry) =
    Hashtbl.remove hs.hs_entries e.e_func;
    hs.hs_bytes <- hs.hs_bytes - e.e_bytes;
    t.occupancy <- t.occupancy - e.e_bytes;
    t.evictions <- t.evictions + 1;
    t.evicted_events <- Fdata.sat_add t.evicted_events e.e_events;
    Obs.incr t.obs "service.sketch_evictions"

  let evict_order (h1, (e1 : entry)) (h2, (e2 : entry)) =
    compare (e1.e_events, h1, e1.e_func) (e2.e_events, h2, e2.e_func)

  let enforce_topk t (hs : host_state) =
    let n = Hashtbl.length hs.hs_entries in
    if n > t.topk then begin
      let entries =
        Hashtbl.fold (fun _ e acc -> (hs.hs_host, e) :: acc) hs.hs_entries []
        |> List.sort evict_order
      in
      let rec drop k = function
        | (_, e) :: rest when k > 0 ->
            evict_entry t hs e;
            drop (k - 1) rest
        | _ -> ()
      in
      drop (n - t.topk) entries
    end

  let enforce_budget t =
    if t.occupancy > t.budget then begin
      let low_water = t.budget * 9 / 10 in
      let all =
        Hashtbl.fold
          (fun _ hs acc ->
            Hashtbl.fold (fun _ e acc -> (hs, e) :: acc) hs.hs_entries acc)
          t.hosts []
        |> List.sort (fun (h1, e1) (h2, e2) ->
               evict_order (h1.hs_host, e1) (h2.hs_host, e2))
      in
      let rec go = function
        | (hs, e) :: rest when t.occupancy > low_water ->
            evict_entry t hs e;
            go rest
        | _ -> ()
      in
      go all
    end

  type ingested = { ig_records : int; ig_warnings : int; ig_skipped : bool }

  let ingest t ~host (text : string) : ingested =
    let entries = Hashtbl.create 64 in
    let bytes = ref (host_base + String.length host) in
    let records = ref 0 in
    let entry func =
      match Hashtbl.find_opt entries func with
      | Some e -> e
      | None ->
          let e = entry_of func in
          Hashtbl.add entries func e;
          bytes := !bytes + e.e_bytes;
          e
    in
    let grow e by =
      e.e_bytes <- e.e_bytes + by;
      bytes := !bytes + by
    in
    let prof, warnings =
      Fdata.scan
        ~branch:(fun (b : Fdata.branch) ->
          incr records;
          let e = entry b.Fdata.br_from_func in
          e.e_events <- Fdata.sat_add e.e_events b.Fdata.br_count;
          let k = (b.Fdata.br_from_off, b.Fdata.br_to_func, b.Fdata.br_to_off) in
          (match Hashtbl.find_opt e.e_branches k with
          | Some (c, m) ->
              Hashtbl.replace e.e_branches k
                ( Fdata.sat_add c b.Fdata.br_count,
                  Fdata.sat_add m b.Fdata.br_mispreds )
          | None ->
              Hashtbl.add e.e_branches k (b.Fdata.br_count, b.Fdata.br_mispreds);
              grow e (branch_cost b.Fdata.br_to_func)))
        ~range:(fun (r : Fdata.range) ->
          incr records;
          let e = entry r.Fdata.rg_func in
          e.e_events <- Fdata.sat_add e.e_events r.Fdata.rg_count;
          let k = (r.Fdata.rg_start, r.Fdata.rg_end) in
          (match Hashtbl.find_opt e.e_ranges k with
          | Some c -> Hashtbl.replace e.e_ranges k (Fdata.sat_add c r.Fdata.rg_count)
          | None ->
              Hashtbl.add e.e_ranges k r.Fdata.rg_count;
              grow e range_cost))
        ~sample:(fun (s : Fdata.sample) ->
          incr records;
          let e = entry s.Fdata.sm_func in
          e.e_events <- Fdata.sat_add e.e_events s.Fdata.sm_count;
          match Hashtbl.find_opt e.e_samples s.Fdata.sm_off with
          | Some c ->
              Hashtbl.replace e.e_samples s.Fdata.sm_off
                (Fdata.sat_add c s.Fdata.sm_count)
          | None ->
              Hashtbl.add e.e_samples s.Fdata.sm_off s.Fdata.sm_count;
              grow e sample_cost)
        text
    in
    let skipped = Bolt_fleet.Merge.torn ~records:!records ~warnings in
    if not skipped then begin
      let hs =
        match Hashtbl.find_opt t.hosts host with
        | Some hs ->
            t.occupancy <- t.occupancy - hs.hs_bytes;
            hs
        | None ->
            let hs =
              {
                hs_host = host;
                hs_header = Fdata.no_header;
                hs_lbr = true;
                hs_fingerprints = [];
                hs_entries = entries;
                hs_bytes = 0;
              }
            in
            Hashtbl.add t.hosts host hs;
            hs
      in
      hs.hs_entries <- entries;
      hs.hs_bytes <- !bytes;
      t.occupancy <- t.occupancy + !bytes;
      let hd = Option.value ~default:Fdata.no_header prof.Fdata.header in
      if
        prof.Fdata.fingerprints <> []
        || hd.Fdata.hd_build_id <> hs.hs_header.Fdata.hd_build_id
      then hs.hs_fingerprints <- prof.Fdata.fingerprints;
      hs.hs_header <- { hd with Fdata.hd_host = host };
      hs.hs_lbr <- prof.Fdata.lbr;
      enforce_topk t hs;
      enforce_budget t;
      t.peak <- max t.peak t.occupancy
    end;
    t.malformed <- t.malformed + List.length warnings;
    Obs.set t.obs "service.sketch_occupancy_bytes" (float_of_int t.occupancy);
    {
      ig_records = !records;
      ig_warnings = List.length warnings;
      ig_skipped = skipped;
    }

  let hosts t = Hashtbl.length t.hosts

  let funcs t =
    Hashtbl.fold (fun _ hs acc -> acc + Hashtbl.length hs.hs_entries) t.hosts 0

  let occupancy t = t.occupancy
  let peak t = t.peak
  let evictions t = t.evictions
  let evicted_events t = t.evicted_events
  let malformed t = t.malformed

  let profile_of (hs : host_state) : Fdata.t =
    let branches = ref [] and ranges = ref [] and samples = ref [] in
    Hashtbl.iter
      (fun _ (e : entry) ->
        Hashtbl.iter
          (fun (fo, tf, to_) (c, m) ->
            branches :=
              {
                Fdata.br_from_func = e.e_func;
                br_from_off = fo;
                br_to_func = tf;
                br_to_off = to_;
                br_count = c;
                br_mispreds = m;
              }
              :: !branches)
          e.e_branches;
        Hashtbl.iter
          (fun (s, en) c ->
            ranges :=
              { Fdata.rg_func = e.e_func; rg_start = s; rg_end = en; rg_count = c }
              :: !ranges)
          e.e_ranges;
        Hashtbl.iter
          (fun o c ->
            samples :=
              { Fdata.sm_func = e.e_func; sm_off = o; sm_count = c } :: !samples)
          e.e_samples)
      hs.hs_entries;
    let p =
      {
        Fdata.lbr = hs.hs_lbr;
        header = Some hs.hs_header;
        branches = !branches;
        ranges = !ranges;
        samples = !samples;
        total_samples = 0L;
        fingerprints = hs.hs_fingerprints;
      }
    in
    accumulate (iter_records p) p

  let to_shards t : Bolt_fleet.Merge.loaded list =
    Hashtbl.fold (fun _ hs acc -> hs :: acc) t.hosts []
    |> List.sort (fun a b -> compare a.hs_host b.hs_host)
    |> List.map (fun hs ->
           Bolt_fleet.Merge.shard_of_profile ~name:hs.hs_host (profile_of hs))
end

(* The chunk collector [Bolt_linker.Linker.collect_chunks] was before
   per-object buckets, kept verbatim: every section filters its object's
   whole symbol, relocation, FDE, LSDA and line-table lists. *)
let collect_chunks objs =
  let open Bolt_obj in
  let open Types in
  let open Bolt_linker.Linker in
  let chunks = ref [] in
  List.iteri
    (fun oi (o : Objfile.t) ->
      List.iter
        (fun (s : section) ->
          let in_sec (name : string) = name = s.sec_name in
          let syms = List.filter (fun sy -> in_sec sy.sym_section) o.symbols in
          let relocs = List.filter (fun r -> in_sec r.rel_section) o.relocs in
          let fdes, lsdas, dbgs =
            if s.sec_kind = Text then
              let fnames =
                List.filter (fun sy -> sy.sym_kind = Func) syms
                |> List.map (fun sy -> sy.sym_name)
              in
              ( List.filter (fun f -> List.mem f.fde_func fnames) o.fdes,
                List.filter (fun l -> List.mem l.lsda_func fnames) o.lsdas,
                List.filter (fun d -> List.mem d.dbg_func fnames) o.dbgs )
            else ([], [], [])
          in
          chunks :=
            {
              ch_obj = oi;
              ch_name = s.sec_name;
              ch_kind = s.sec_kind;
              ch_data = s.sec_data;
              ch_size = s.sec_size;
              ch_syms = syms;
              ch_relocs = relocs;
              ch_fdes = fdes;
              ch_lsdas = lsdas;
              ch_dbgs = dbgs;
              ch_out_off = -1;
              ch_folded_into = None;
            }
            :: !chunks)
        o.sections)
    objs;
  Array.of_list (List.rev !chunks)

(* [Bolt_obj.Fingerprint.compute] as it was before the one-sweep block
   walk, kept verbatim with its [decode_stream] and [fingerprint_fn]:
   each block rescans the function's whole instruction array, and each
   direct call scans the sorted function symbols for the first one that
   covers its target. *)
let fingerprints ~sections ~symbols =
  let open Bolt_obj.Types in
  let open Bolt_obj.Fingerprint in
  let module Insn = Bolt_isa.Insn in
  let module Codec = Bolt_isa.Codec in
  let decode_stream data ~base ~size =
    let insns = ref [] in
    let pos = ref 0 in
    (try
       while !pos < size do
         let i, sz = Codec.decode data (base + !pos) in
         insns := (!pos, sz, i) :: !insns;
         pos := !pos + sz
       done
     with Codec.Decode_error _ | Invalid_argument _ -> ());
    Array.of_list (List.rev !insns)
  in
  let fingerprint_fn ~data ~base ~size ~name ~resolve : func =
    let insns = decode_stream data ~base ~size in
    let n = Array.length insns in
    let in_func o = o >= 0 && o < size in
    (* leaders: entry, intra-function branch targets, post-branch resume *)
    let leaders = Hashtbl.create 16 in
    Hashtbl.replace leaders 0 ();
    Array.iter
      (fun (off, sz, i) ->
        let next = off + sz in
        match i with
        | Insn.Jmp (Insn.Imm rel, _) | Insn.Jcc (_, Insn.Imm rel, _) ->
            if in_func (next + rel) then Hashtbl.replace leaders (next + rel) ();
            if in_func next then Hashtbl.replace leaders next ()
        | _ ->
            if Insn.is_terminator i && in_func next then
              Hashtbl.replace leaders next ())
      insns;
    let starts =
      Hashtbl.fold (fun o () acc -> o :: acc) leaders [] |> List.sort compare
    in
    let starts_arr = Array.of_list starts in
    let nb = Array.length starts_arr in
    let block_end k = if k + 1 < nb then starts_arr.(k + 1) else size in
    let index_of_start =
      let h = Hashtbl.create 16 in
      Array.iteri (fun k o -> Hashtbl.replace h o k) starts_arr;
      fun o -> Hashtbl.find_opt h o
    in
    let calls = ref [] in
    let func_oh = ref hash_empty in
    let blocks =
      Array.to_list
        (Array.mapi
           (fun k start ->
             let stop = block_end k in
             let oh = ref hash_empty in
             let last = ref None in
             Array.iter
               (fun (off, sz, i) ->
                 if off >= start && off < stop then begin
                   oh := mix !oh (op_kind i);
                   func_oh := mix !func_oh (op_kind i);
                   last := Some (off, sz, i);
                   match i with
                   | Insn.Call (Insn.Imm rel) -> (
                       match resolve (off + sz + rel) with
                       | Some callee -> calls := callee :: !calls
                       | None -> ())
                   | _ -> ()
                 end)
               insns;
             (* shape: terminator class + successor positions relative to
                this block, so inserting a block shifts only its
                neighbourhood *)
             let sh = ref hash_empty in
             (match !last with
             | None -> ()
             | Some (off, sz, i) ->
                 sh := mix !sh (term_class i);
                 let next = off + sz in
                 let succ o =
                   match index_of_start o with
                   | Some j -> sh := mix !sh (j - k + 1024)
                   | None -> sh := mix !sh 2048 (* leaves the function *)
                 in
                 (match i with
                 | Insn.Jmp (Insn.Imm rel, _) -> succ (next + rel)
                 | Insn.Jcc (_, Insn.Imm rel, _) ->
                     succ (next + rel);
                     if in_func next then succ next
                 | _ -> if (not (Insn.is_terminator i)) && in_func next then succ next));
             {
               bk_off = start;
               bk_size = stop - start;
               bk_opcode_hash = !oh;
               bk_shape_hash = !sh;
             })
           starts_arr)
    in
    let cfg =
      List.fold_left
        (fun h b -> mix h b.bk_shape_hash)
        (mix hash_empty nb) blocks
    in
    {
      fp_func = name;
      fp_size = size;
      fp_opcode_hash =
        (if n = 0 then
           (* undecodable from byte 0: fall back to a raw-byte hash so even
              opaque functions fingerprint deterministically *)
           hash_string hash_empty (Bytes.sub_string data base size)
         else !func_oh);
      fp_cfg_hash = cfg;
      fp_calls = List.sort_uniq compare !calls;
      fp_blocks = blocks;
    }
  in
  let texts = List.filter (fun s -> s.sec_kind = Text) sections in
  let funcs =
    List.filter (fun s -> s.sym_kind = Func && s.sym_size > 0) symbols
    |> List.sort (fun a b -> compare (a.sym_value, a.sym_name) (b.sym_value, b.sym_name))
  in
  (* address -> function name, for direct-call resolution *)
  let resolve_in sym addr =
    List.find_opt
      (fun f -> addr >= f.sym_value && addr < f.sym_value + f.sym_size)
      funcs
    |> Option.map (fun f -> f.sym_name)
    |> fun r -> ignore sym; r
  in
  List.filter_map
    (fun sym ->
      match
        List.find_opt
          (fun s ->
            sym.sym_value >= s.sec_addr
            && sym.sym_value + sym.sym_size <= s.sec_addr + s.sec_size)
          texts
      with
      | None -> None
      | Some sec ->
          let base = sym.sym_value - sec.sec_addr in
          if base < 0 || base + sym.sym_size > Bytes.length sec.sec_data then None
          else
            Some
              (fingerprint_fn ~data:sec.sec_data ~base ~size:sym.sym_size
                 ~name:sym.sym_name
                 ~resolve:(fun off -> resolve_in sym (sec.sec_addr + base + off))))
    funcs

(* [Bolt_asm.Asm.layout_function] and [assemble_function] as they were
   before items were sized once into int arrays, kept verbatim: every
   relaxation round re-sizes every item through [Insn.size (widen ..)],
   and every local target resolves through the string label table. *)
module Asm = struct
  open Bolt_isa
  open Bolt_obj
  open Types
  open Bolt_asm.Asm

  (* Items with branch widths chosen; returns offsets of each item. *)
  let layout_function f =
    let items = Array.of_list f.af_body in
    let n = Array.length items in
    (* Local label table: name -> item index. *)
    let label_idx = Hashtbl.create 16 in
    Array.iteri
      (fun i it ->
        match it with
        | A_label l ->
            if Hashtbl.mem label_idx l then err "duplicate label %s in %s" l f.af_name;
            Hashtbl.add label_idx l i
        | _ -> ())
      items;
    let is_local = Hashtbl.mem label_idx in
    (* Width choice per item: true = wide.  Branches to non-local symbols are
       always wide (they need a 32-bit relocation). *)
    let wide = Array.make n false in
    Array.iteri
      (fun i it ->
        match it with
        | A_insn insn | A_insn_lp (insn, _) -> (
            match insn with
            | Insn.Jmp (Sym (s, _), _) | Insn.Jcc (_, Sym (s, _), _) ->
                if not (is_local s) then wide.(i) <- true
            | Insn.Jmp (_, w) | Insn.Jcc (_, _, w) -> if w = Insn.W32 then wide.(i) <- true
            | _ -> ())
        | _ -> ())
      items;
    let widen insn w =
      match insn with
      | Insn.Jmp (v, _) -> Insn.Jmp (v, w)
      | Insn.Jcc (c, v, _) -> Insn.Jcc (c, v, w)
      | i -> i
    in
    let item_size off i it =
      match it with
      | A_label _ | A_cfi _ | A_loc _ -> 0
      | A_align a ->
          if a <= 1 then 0
          else
            let pad = (a - (off mod a)) mod a in
            pad
      | A_insn insn | A_insn_lp (insn, _) ->
          Insn.size (widen insn (if wide.(i) then Insn.W32 else Insn.W8))
    in
    let offsets = Array.make (n + 1) 0 in
    let compute_offsets () =
      let off = ref 0 in
      Array.iteri
        (fun i it ->
          offsets.(i) <- !off;
          off := !off + item_size !off i it)
        items;
      offsets.(n) <- !off
    in
    let changed = ref true in
    while !changed do
      changed := false;
      compute_offsets ();
      Array.iteri
        (fun i it ->
          match it with
          | (A_insn insn | A_insn_lp (insn, _)) when not wide.(i) -> (
              match insn with
              | Insn.Jmp (Sym (s, a), _) | Insn.Jcc (_, Sym (s, a), _)
                when is_local s ->
                  let ti = Hashtbl.find label_idx s in
                  let target = offsets.(ti) + a in
                  let end_of = offsets.(i) + item_size offsets.(i) i it in
                  let rel = target - end_of in
                  if not (Bolt_isa.Codec.fits_i8 rel) then (
                    wide.(i) <- true;
                    changed := true)
              | _ -> ())
          | _ -> ())
        items
    done;
    compute_offsets ();
    (items, offsets, wide, label_idx)

  (* [resolve_in_unit] maps a symbol defined elsewhere in the same section to
     its offset (used when a unit is assembled without function sections). *)
  let assemble_function ?(resolve_in_unit = fun _ -> None) ~base f =
    let items, offsets, wide, label_idx = layout_function f in
    let n = Array.length items in
    let size = offsets.(n) in
    let bytes = Bytes.make size '\x02' (* single-byte nops *) in
    let relocs = ref [] in
    let cfi = ref [] in
    let lsda = ref [] in
    let dbg = ref [] in
    let cur_loc = ref None in
    let note_loc off =
      match !cur_loc with
      | None -> ()
      | Some (f, l) -> (
          match !dbg with
          | (_, f', l') :: _ when f' = f && l' = l -> ()
          | _ -> dbg := (off, f, l) :: !dbg)
    in
    let lsda_sym = ref [] in
    let lsda_open = ref None (* (label, start) of the range being grown *) in
    let close_lsda upto =
      match !lsda_open with
      | None -> ()
      | Some (pad_label, start) ->
          lsda_sym := (start, upto - start, pad_label) :: !lsda_sym;
          (match Hashtbl.find_opt label_idx pad_label with
          | Some i ->
              lsda :=
                {
                  lsda_start = start;
                  lsda_len = upto - start;
                  lsda_pad = offsets.(i);
                  lsda_action = 1;
                }
                :: !lsda
          | None ->
              (* pad lives outside this fragment; the caller resolves it *)
              ());
          lsda_open := None
    in
    let local_target s a =
      match Hashtbl.find_opt label_idx s with
      | Some i -> Some (offsets.(i) + a)
      | None -> ( match resolve_in_unit s with Some o -> Some (o - base + a) | None -> None)
    in
    let emit_insn i insn =
      let off = offsets.(i) in
      let w = if wide.(i) then Insn.W32 else Insn.W8 in
      let insn =
        match insn with
        | Insn.Jmp (v, _) -> Insn.Jmp (v, w)
        | Insn.Jcc (c, v, _) -> Insn.Jcc (c, v, w)
        | x -> x
      in
      let isize = Insn.size insn in
      let end_of = off + isize in
      (* Resolve or relocate the symbolic operand, if any. *)
      let resolved =
        match Codec.operand_kind insn with
        | Codec.Op_none -> insn
        | Codec.Op_rel (fo, fw) -> (
            let v =
              match insn with
              | Insn.Jmp (v, _) | Insn.Jcc (_, v, _) | Insn.Call v | Insn.Lea_rel (_, v) -> v
              | _ -> err "unexpected rel operand in %s" (Insn.to_string insn)
            in
            match v with
            | Insn.Imm _ -> insn
            | Insn.Sym (s, a) -> (
                match local_target s a with
                | Some t -> Insn.with_value insn (Insn.Imm (t - end_of))
                | None ->
                    let kind = if fw = 1 then Rel8 else Rel32 in
                    relocs := (off + fo, kind, s, a, isize - fo) :: !relocs;
                    Insn.with_value insn (Insn.Imm 0)))
        | Codec.Op_abs (fo, fw) -> (
            let v =
              match insn with
              | Insn.Mov_ri (_, v, _)
              | Insn.Load_abs (_, v)
              | Insn.Store_abs (v, _)
              | Insn.Lea (_, v)
              | Insn.Call_mem v
              | Insn.Jmp_mem v
              | Insn.Alu_ri (_, _, v) ->
                  v
              | _ -> err "unexpected abs operand in %s" (Insn.to_string insn)
            in
            match v with
            | Insn.Imm _ -> insn
            | Insn.Sym (s, a) ->
                let kind = if fw = 8 then Abs64 else Abs32 in
                relocs := (off + fo, kind, s, a, 0) :: !relocs;
                Insn.with_value insn (Insn.Imm 0))
      in
      ignore (Codec.encode_into bytes off resolved)
    in
    Array.iteri
      (fun i it ->
        match it with
        | A_label _ -> ()
        | A_cfi op -> cfi := (offsets.(i), op) :: !cfi
        | A_align _ ->
            (* pad with single-byte nops: bytes are pre-filled with 0x02 *)
            ()
        | A_loc (f, l) -> cur_loc := Some (f, l)
        | A_insn insn ->
            close_lsda offsets.(i);
            note_loc offsets.(i);
            emit_insn i insn
        | A_insn_lp (insn, pad) ->
            (match !lsda_open with
            | Some (p, _) when p = pad -> ()
            | Some _ ->
                close_lsda offsets.(i);
                lsda_open := Some (pad, offsets.(i))
            | None -> lsda_open := Some (pad, offsets.(i)));
            note_loc offsets.(i);
            emit_insn i insn)
      items;
    close_lsda size;
    let labels =
      Hashtbl.fold (fun l i acc -> (l, offsets.(i)) :: acc) label_idx []
    in
    {
      fo_bytes = bytes;
      fo_size = size;
      fo_relocs = List.rev !relocs;
      fo_cfi = List.rev !cfi;
      fo_lsda = List.rev !lsda;
      fo_lsda_sym = List.rev !lsda_sym;
      fo_dbg = List.rev !dbg;
      fo_labels = labels;
    }
end

(* [Bolt_core.Emit.body_of_fragment] and [emit_simple] as they were
   before fragment bodies were built in arrays, kept verbatim but for
   naming blocks by id as [Bfunc] does: items are consed onto a list,
   fragment membership is a table per fragment, and the fragment is
   assembled by the [Asm] oracle above.  The fragment type is the
   production one, so results compare directly. *)
module Emit = struct
  open Bolt_isa
  open Bolt_asm.Asm
  open Asm
  module Bfunc = Bolt_core.Bfunc
  open Bfunc

  (* Globally-unique symbol for a block, used for cross-fragment refs. *)
  let xref fn l = fn ^ "/" ^ l

  type fragment = Bolt_core.Emit.fragment = {
    fr_name : string; (* symbol: fn or fn.cold *)
    fr_func : string; (* owning function *)
    fr_out : fout;
    fr_labels : (string * int) list; (* block label -> offset *)
    fr_lsda_sym : (int * int * string) list;
    fr_has_fde : bool;
  }

  let cfi_state_after st ops =
    List.fold_left
      (fun st op ->
        match op with
        | Bolt_obj.Types.Cfi_establish -> { st with Bolt_obj.Types.cfa_established = true }
        | Bolt_obj.Types.Cfi_def_locals n -> { st with Bolt_obj.Types.cfa_locals = n }
        | Bolt_obj.Types.Cfi_save (r, slot) ->
            { st with Bolt_obj.Types.cfa_saved = st.Bolt_obj.Types.cfa_saved @ [ (r, slot) ] }
        | Bolt_obj.Types.Cfi_restore r ->
            {
              st with
              Bolt_obj.Types.cfa_saved =
                List.filter (fun (r', _) -> r' <> r) st.Bolt_obj.Types.cfa_saved;
            }
        | Bolt_obj.Types.Cfi_teardown -> Bolt_obj.Types.initial_cfi_state
        | Bolt_obj.Types.Cfi_set_state s -> s)
      st ops

  (* Lower one fragment (a list of block ids in final order) to aitem
     list. *)
  let body_of_fragment (fb : Bfunc.t) ~(in_fragment : int -> bool)
      ~(first_state : Bolt_obj.Types.cfi_state option) (blocks : int list) : aitem list =
    let items = ref [] in
    let push it = items := it :: !items in
    let name l = fb.blocks.(l).bl in
    let ref_of l =
      if in_fragment l then Insn.Sym (name l, 0) else Insn.Sym (xref fb.fb_name (name l), 0)
    in
    let cur_state = ref (match first_state with Some s -> Some s | None -> None) in
    let rec emit_blocks = function
      | [] -> ()
      | l :: rest ->
          let b = fb.blocks.(l) in
          push (A_label b.bl);
          (* regenerate frame info at the boundary *)
          (match !cur_state with
          | Some st when not (Bolt_obj.Types.cfi_state_equal st b.cfi_entry) ->
              push (A_cfi (Bolt_obj.Types.Cfi_set_state b.cfi_entry))
          | None ->
              if b.cfi_entry <> Bolt_obj.Types.initial_cfi_state then
                push (A_cfi (Bolt_obj.Types.Cfi_set_state b.cfi_entry))
          | Some _ -> ());
          cur_state := Some b.cfi_entry;
          List.iter
            (fun (i : minsn) ->
              (match i.loc with Some (f, ln) -> push (A_loc (f, ln)) | None -> ());
              (match i.lp with
              | Some pad when pad >= 0 && pad < Array.length fb.blocks ->
                  (* landing-pad annotations keep their block symbol; the
                     rewriter resolves pads across fragments *)
                  push (A_insn_lp (i.op, name pad))
              | _ -> push (A_insn i.op));
              (match !cur_state with
              | Some st -> cur_state := Some (cfi_state_after st i.cfi_after)
              | None -> ());
              List.iter (fun op -> push (A_cfi op)) i.cfi_after)
            b.insns;
          let next = match rest with n :: _ -> Some n | [] -> None in
          (match b.term with
          | T_jump t -> if next <> Some t then push (A_insn (Insn.Jmp (ref_of t, Insn.W8)))
          | T_cond (c, taken, fall) ->
              if next = Some fall then push (A_insn (Insn.Jcc (c, ref_of taken, Insn.W8)))
              else if next = Some taken then
                push (A_insn (Insn.Jcc (Cond.invert c, ref_of fall, Insn.W8)))
              else begin
                push (A_insn (Insn.Jcc (c, ref_of taken, Insn.W8)));
                push (A_insn (Insn.Jmp (ref_of fall, Insn.W8)))
              end
          | T_condtail (c, fn, fall) ->
              push (A_insn (Insn.Jcc (c, Insn.Sym (fn, 0), Insn.W32)));
              if next <> Some fall then push (A_insn (Insn.Jmp (ref_of fall, Insn.W8)))
          | T_indirect _ | T_stop -> ());
          emit_blocks rest
    in
    emit_blocks blocks;
    List.rev !items

  (* Emit a simple function: hot fragment plus optional cold fragment. *)
  let emit_simple (fb : Bfunc.t) : fragment list =
    let hot = hot_layout fb in
    let cold = cold_layout fb in
    let in_hot = Hashtbl.create 16 and in_cold = Hashtbl.create 16 in
    List.iter (fun l -> Hashtbl.replace in_hot l ()) hot;
    List.iter (fun l -> Hashtbl.replace in_cold l ()) cold;
    let mk name blocks ~in_fragment ~first_state =
      let body = body_of_fragment fb ~in_fragment ~first_state blocks in
      let af =
        { af_name = name; af_global = true; af_align = 1; af_emit_fde = true; af_body = body }
      in
      let out = assemble_function ~base:0 af in
      {
        fr_name = name;
        fr_func = fb.fb_name;
        fr_out = out;
        fr_labels = out.fo_labels;
        fr_lsda_sym = out.fo_lsda_sym;
        fr_has_fde = true;
      }
    in
    let hot_frag =
      mk fb.fb_name hot
        ~in_fragment:(Hashtbl.mem in_hot)
        ~first_state:(Some Bolt_obj.Types.initial_cfi_state)
    in
    if cold = [] then [ hot_frag ]
    else
      let cold_frag =
        mk (fb.fb_name ^ ".cold") cold ~in_fragment:(Hashtbl.mem in_cold) ~first_state:None
      in
      [ hot_frag; cold_frag ]
end

(* [Bolt_core.Build.build_function] as it was before decoding into
   arrays, kept verbatim with the helpers it needs but for naming blocks
   by id (the sorted leaders' ranks): leaders, next leaders, instruction
   offsets and CFI ops live in int-keyed [Hashtbl]s, and every block
   replays the FDE's ops from the start to find its entry state. *)
module Build = struct
  open Bolt_isa
  open Bolt_obj
  open Bolt_core
  open Bfunc

  let lbl off = Printf.sprintf ".LBB%d" off

  type raw = { r_off : int; r_insn : Insn.t; r_size : int }

  let decode_function (text : Types.section) ~addr ~size =
    let base = addr - text.sec_addr in
    let insns = ref [] in
    let pos = ref 0 in
    let ok = ref true in
    while !ok && !pos < size do
      match Codec.decode text.sec_data (base + !pos) with
      | i, sz ->
          insns := { r_off = !pos; r_insn = i; r_size = sz } :: !insns;
          pos := !pos + sz
      | exception Codec.Decode_error _ -> ok := false
      (* an instruction straddling the section end reads past the buffer *)
      | exception Invalid_argument _ -> ok := false
    done;
    if !ok then Some (List.rev !insns) else None

  (* ---- jump table discovery ---- *)

  (* Scan backwards from an indirect jump for the switch idiom:
       cmp r, #lo ; jlt default ; cmp r, #hi ; jgt default ;
       [sub r, #lo] ; shl r, 3 ; lea rb, table ; add r, rb ;
       load r, [r] ; [add r, rb] ; jmp *r

     [Jt_found] carries (table_addr, pic, entry_count).  [Jt_suspicious]
     means table-like evidence (a .rodata base, or a memory load feeding
     the jump) without the full idiom: the jump probably reads a table we
     cannot recover, so the function must not be moved.  [Jt_absent] is a
     plain computed target — an indirect tail call through a register —
     which is safe to relocate verbatim. *)
  type jt_scan = Jt_found of int * bool * int | Jt_suspicious | Jt_absent

  let find_jump_table ctx (raws : raw array) idx fb_addr =
    let lo_bound = ref None and hi_bound = ref None in
    let table = ref None in
    let saw_load = ref false in
    let start = max 0 (idx - 12) in
    for k = idx - 1 downto start do
      (match raws.(k).r_insn with
      | Insn.Alu_ri (Insn.Cmp, _, Insn.Imm v) -> (
          (* the first cmp hit walking backwards is the hi bound *)
          match !hi_bound with
          | None -> hi_bound := Some v
          | Some _ -> if !lo_bound = None then lo_bound := Some v)
      | Insn.Lea (_, Insn.Imm a) when Context.in_section ctx.Context.rodata a ->
          if !table = None then table := Some (a, false)
      | Insn.Lea_rel (_, Insn.Imm disp) ->
          let a = fb_addr + raws.(k).r_off + raws.(k).r_size + disp in
          if !table = None && Context.in_section ctx.Context.rodata a then
            table := Some (a, true)
      | Insn.Load _ | Insn.Load_abs _ -> saw_load := true
      | _ -> ());
      ()
    done;
    match (!table, !lo_bound, !hi_bound) with
    | Some (addr, pic), Some lo, Some hi when hi >= lo && hi - lo < 4096 ->
        Jt_found (addr, pic, hi - lo + 1)
    | Some _, _, _ -> Jt_suspicious
    | None, _, _ -> if !saw_load then Jt_suspicious else Jt_absent

  (* ---- non-simple fallback ---- *)

  (* Linear code for a function kept byte-identical, with the references
     that must survive relocation (calls, code addresses) symbolized. *)
  let symbolize_raw ctx (fb : Bfunc.t) raw_list =
    fb.raw_insns <-
      List.map
        (fun r ->
          let next_off = r.r_off + r.r_size in
          let sym =
            match r.r_insn with
            | Insn.Call (Insn.Imm rel) -> (
                match Bolt_core.Build.entry_at ctx (fb.fb_addr + next_off + rel) with
                | Some fn -> Insn.Call (Insn.Sym (fn, 0))
                | None -> r.r_insn)
            | Insn.Lea_rel (rg, Insn.Imm disp) -> (
                let a = fb.fb_addr + next_off + disp in
                match Bolt_core.Build.entry_at ctx a with
                | Some fn -> Insn.Lea (rg, Insn.Sym (fn, 0))
                | None -> Insn.Lea (rg, Insn.Imm a))
            | Insn.Lea (rg, Insn.Imm a) -> (
                match Bolt_core.Build.entry_at ctx a with
                | Some fn -> Insn.Lea (rg, Insn.Sym (fn, 0))
                | None -> r.r_insn)
            | i -> i
          in
          { op = sym; lp = None; loc = None; cfi_after = []; m_off = r.r_off })
        raw_list
  (* ---- per-function CFG build ---- *)

  let build_function ctx (fb : Bfunc.t) =
    let opts = ctx.Context.opts in
    let text = ctx.Context.text in
    match decode_function text ~addr:fb.fb_addr ~size:fb.fb_size with
    | None ->
        mark_non_simple fb "undecodable bytes";
        fb.raw_insns <- []
    | Some raw_list -> (
        let raws = Array.of_list raw_list in
        let n = Array.length raws in
        (* source locations *)
        let dbg =
          match Objfile.Index.dbg ctx.Context.meta fb.fb_addr with
          | Some d -> d.dbg_entries
          | None -> []
        in
        (* the last entry, in sorted order, at or before [off] *)
        let loc_at =
          let sorted =
            Array.of_list (List.sort compare (List.map (fun (o, f, l) -> (o, (f, l))) dbg))
          in
          fun off ->
            let lo = ref 0 and hi = ref (Array.length sorted) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if fst sorted.(mid) <= off then lo := mid + 1 else hi := mid
            done;
            if !lo = 0 then None else Some (snd sorted.(!lo - 1))
        in
        (* CFI ops keyed by the offset at which they take effect *)
        let fde = Objfile.Index.fde ctx.Context.meta fb.fb_addr in
        let cfi_at = Hashtbl.create 16 in
        (match fde with
        | Some f ->
            List.iter
              (fun (o, op) ->
                Hashtbl.replace cfi_at o
                  ((try Hashtbl.find cfi_at o with Not_found -> []) @ [ op ]))
              f.fde_cfi
        | None -> ());
        let lsda = Objfile.Index.lsda ctx.Context.meta fb.fb_addr in
        (* symbolize a call target; raises Exit when impossible *)
        let call_target addr =
          match Bolt_core.Build.entry_at ctx addr with Some name -> name | None -> raise Exit
        in
        let in_func off = off >= 0 && off < fb.fb_size in
        (* jump tables, keyed by the indirect jump's instruction index *)
        let jts = ref [] in
        let jt_of_idx = Hashtbl.create 4 in
        (try
           (* pass 1: control-flow targets and jump tables *)
           let leaders = Hashtbl.create 32 in
           Hashtbl.replace leaders 0 ();
           let add_leader o = if in_func o then Hashtbl.replace leaders o () in
           Array.iteri
             (fun i r ->
               let next = r.r_off + r.r_size in
               match r.r_insn with
               | Insn.Jmp (Insn.Imm rel, _) ->
                   let t = next + rel in
                   if in_func t then add_leader t
                   else ignore (call_target (fb.fb_addr + t));
                   add_leader next
               | Insn.Jcc (_, Insn.Imm rel, _) ->
                   let t = next + rel in
                   if in_func t then add_leader t
                   else ignore (call_target (fb.fb_addr + t));
                   add_leader next
               | Insn.Jmp_ind _ -> (
                   match find_jump_table ctx raws i fb.fb_addr with
                   | Jt_found (taddr, pic, count) ->
                       let entries = Array.make count 0 in
                       let ok = ref true in
                       for k = 0 to count - 1 do
                         match Context.section_value ctx ctx.Context.rodata (taddr + (8 * k)) with
                         | Some v ->
                             let target = if pic then taddr + v else v in
                             let off = target - fb.fb_addr in
                             if in_func off then entries.(k) <- off else ok := false
                         | None -> ok := false
                       done;
                       if not !ok then begin
                         mark_non_simple fb "invalid jump table entries";
                         fb.table_unrecovered <- true;
                         raise Exit
                       end;
                       Array.iter add_leader entries;
                       let k = List.length !jts in
                       jts := (taddr, pic, entries) :: !jts;
                       Hashtbl.replace jt_of_idx i k;
                       add_leader next
                   | Jt_suspicious ->
                       mark_non_simple fb "unrecoverable jump table";
                       fb.table_unrecovered <- true;
                       raise Exit
                   | Jt_absent ->
                       mark_non_simple fb
                         "unresolved indirect jump (possible indirect tail call)";
                       raise Exit)
               | Insn.Jmp_mem _ ->
                   mark_non_simple fb "jump through memory outside PLT";
                   raise Exit
               | Insn.Call (Insn.Imm rel) -> ignore (call_target (fb.fb_addr + next + rel))
               | Insn.Ret | Insn.Repz_ret | Insn.Halt | Insn.Throw -> add_leader next
               | _ -> ())
             raws;
           (match lsda with
           | Some l ->
               List.iter (fun (e : Types.lsda_entry) -> add_leader e.lsda_pad) l.lsda_entries;
               fb.has_eh <- true
           | None -> ());
           let leader_list = Hashtbl.fold (fun o () acc -> o :: acc) leaders [] in
           let leader_list = List.sort compare leader_list in
           (* block ids: leaders numbered in offset order *)
           let ids = Hashtbl.create 32 in
           List.iteri (fun k o -> Hashtbl.replace ids o k) leader_list;
           let id o = Hashtbl.find ids o in
           (* landing pads for instructions; -1 for a pad outside the
              function *)
           let lp_at off =
             match lsda with
             | None -> None
             | Some l ->
                 List.find_opt
                   (fun (e : Types.lsda_entry) ->
                     off >= e.lsda_start && off < e.lsda_start + e.lsda_len)
                   l.lsda_entries
                 |> Option.map (fun e ->
                        Option.value ~default:(-1) (Hashtbl.find_opt ids e.Types.lsda_pad))
           in
           let built = ref [] in
           let next_leader = Hashtbl.create 32 in
           let rec link = function
             | a :: (b :: _ as rest) ->
                 Hashtbl.replace next_leader a b;
                 link rest
             | _ -> []
           in
           ignore (link leader_list);
           (* index raws by offset for block slicing *)
           let idx_of_off = Hashtbl.create 64 in
           Array.iteri (fun i r -> Hashtbl.replace idx_of_off r.r_off i) raws;
           let cfi_ops_upto o =
             (* list of (off, op) with off <= o, in order: used for entry states *)
             match fde with
             | Some f -> List.filter (fun (o', _) -> o' <= o) f.fde_cfi
             | None -> []
           in
           List.iter
             (fun leader ->
               let stop =
                 match Hashtbl.find_opt next_leader leader with
                 | Some nl -> nl
                 | None -> fb.fb_size
               in
               let i0 =
                 match Hashtbl.find_opt idx_of_off leader with
                 | Some i -> i
                 | None ->
                     mark_non_simple fb "leader inside an instruction";
                     raise Exit
               in
               let insns = ref [] in
               let term = ref None in
               let i = ref i0 in
               while !term = None && !i < n && raws.(!i).r_off < stop do
                 let r = raws.(!i) in
                 let next_off = r.r_off + r.r_size in
                 let mark_term t = term := Some t in
                 let keep ?(sym = r.r_insn) () =
                   let cfi =
                     match Hashtbl.find_opt cfi_at next_off with Some ops -> ops | None -> []
                   in
                   insns :=
                     {
                       op = sym;
                       lp =
                         (if Insn.is_call r.r_insn || r.r_insn = Insn.Throw then
                            lp_at r.r_off
                          else None);
                       loc = loc_at r.r_off;
                       cfi_after = cfi;
                       m_off = r.r_off;
                     }
                     :: !insns
                 in
                 (match r.r_insn with
                 | Insn.Nop _ -> if not opts.Opts.strip_nops then keep ()
                 | Insn.Jmp (Insn.Imm rel, _) ->
                     let t = next_off + rel in
                     if in_func t then mark_term (T_jump (id t))
                     else begin
                       (* direct tail call *)
                       let fn = call_target (fb.fb_addr + t) in
                       keep ~sym:(Insn.Jmp (Insn.Sym (fn, 0), Insn.W32)) ();
                       mark_term T_stop
                     end
                 | Insn.Jcc (c, Insn.Imm rel, _) ->
                     let t = next_off + rel in
                     let fall =
                       if in_func next_off then id next_off
                       else begin
                         mark_non_simple fb "conditional branch at function end";
                         raise Exit
                       end
                     in
                     if in_func t then mark_term (T_cond (c, id t, fall))
                     else mark_term (T_condtail (c, call_target (fb.fb_addr + t), fall))
                 | Insn.Jmp_ind _ ->
                     keep ();
                     mark_term (T_indirect (Hashtbl.find_opt jt_of_idx !i))
                 | Insn.Ret | Insn.Repz_ret | Insn.Halt | Insn.Throw ->
                     keep ();
                     mark_term T_stop
                 | Insn.Call (Insn.Imm rel) ->
                     let fn = call_target (fb.fb_addr + next_off + rel) in
                     keep ~sym:(Insn.Call (Insn.Sym (fn, 0))) ()
                 | Insn.Lea_rel (rg, Insn.Imm disp) ->
                     (* rewrite PIC address materialisation to absolute: the
                        instruction is about to move, the data is not *)
                     let a = fb.fb_addr + next_off + disp in
                     (match Bolt_core.Build.entry_at ctx a with
                     | Some fn -> keep ~sym:(Insn.Lea (rg, Insn.Sym (fn, 0))) ()
                     | None -> keep ~sym:(Insn.Lea (rg, Insn.Imm a)) ())
                 | Insn.Lea (rg, Insn.Imm a) -> (
                     (* function pointers must stay symbolic: the target is
                        about to move *)
                     match Bolt_core.Build.entry_at ctx a with
                     | Some fn -> keep ~sym:(Insn.Lea (rg, Insn.Sym (fn, 0))) ()
                     | None when Symtab.covering ctx.Context.syms a <> None ->
                         mark_non_simple fb "address of code taken mid-function";
                         raise Exit
                     | None -> keep ())
                 | _ -> keep ());
                 incr i
               done;
               let term =
                 match !term with
                 | Some t -> t
                 | None ->
                     if stop >= fb.fb_size then begin
                       mark_non_simple fb "control falls off the function end";
                       raise Exit
                     end
                     else T_jump (id stop)
               in
               let entry_state =
                 Types.cfi_state_at (cfi_ops_upto leader) leader
               in
               built :=
                 {
                   bl = lbl leader;
                   b_off = leader;
                   insns = List.rev !insns;
                   term;
                   ecount = 0;
                   cfi_entry = entry_state;
                   is_lp = false;
                   out = [];
                   cold = false;
                 }
                 :: !built)
             leader_list;
           fb.blocks <- Array.of_list (List.rev !built);
           (* jump tables, now that ids exist *)
           fb.jts <-
             Array.of_list
               (List.rev_map
                  (fun (addr, pic, entries) ->
                    { jt_addr = addr; jt_pic = pic; jt_targets = Array.map id entries;
                      jt_offsets = entries })
                  !jts);
           (match lsda with
           | Some l ->
               List.iter
                 (fun (e : Types.lsda_entry) ->
                   match Hashtbl.find_opt ids e.lsda_pad with
                   | Some k -> fb.blocks.(k).is_lp <- true
                   | None -> ())
                 l.lsda_entries
           | None -> ());
           fb.layout <- Array.of_list (List.map id leader_list)
         with Exit ->
           if fb.why_not_simple = "" then
             mark_non_simple fb "unresolvable code reference";
           fb.blocks <- [||];
           fb.layout <- [||]);
        (* Non-simple fallback: keep bytes identical, but symbolize the
           references that must survive relocation. *)
        if not fb.simple then symbolize_raw ctx fb raw_list)
end

(* [Bolt_sim.Machine.run] as it was before the block cache, kept
   verbatim: a segment search, a size-table read, a memo lookup and a
   fetch-line test per instruction, and both set scans on every data
   access and every line fetch.  It shares the simulator's types, caches,
   branch predictor and memory, so outcomes compare with [=]. *)
module Machine = struct
  open Bolt_isa
  open Bolt_obj
  open Bolt_sim
  include Machine

  (* ---- executable image ---- *)

  (* A text segment.  [sizes] holds, per byte offset, the encoded size of
     the instruction starting there, or 0 where none starts (inside an
     instruction, or an undecodable padding byte).  It is computed eagerly
     at load, so the decoder validates every start before the program
     runs.  The instructions themselves are decoded again lazily, the
     first time their start executes, and kept in [memo]: one chunk of
     [chunk_size] slots per stretch of text that executes, allocated on
     first use. *)
  type seg = {
    seg_base : int;
    seg_limit : int;
    data : Bytes.t;
    sizes : Bytes.t;
    memo : Insn.t array array;
  }

  type image = {
    segs : seg array; (* in section order *)
    funcs : Symtab.t;
    meta : Objfile.Index.t; (* frame info and exception tables by start *)
    entry : int;
    mem : Memory.t;
  }

  let chunk_bits = 12
  let chunk_size = 1 lsl chunk_bits

  (* Marks a memo slot whose instruction has not executed yet; the
     decoder never produces a zero-byte nop. *)
  let undecoded = Insn.Nop 0

  let predecode (sec : Types.section) =
    let n = sec.sec_size in
    let sizes = Bytes.make n '\x00' in
    let pos = ref 0 in
    while !pos < n do
      match Codec.decode sec.sec_data !pos with
      | _, sz ->
          Bytes.set sizes !pos (Char.chr sz);
          pos := !pos + sz
      | exception Codec.Decode_error _ ->
          (* tolerate padding bytes that are not valid instructions *)
          incr pos
    done;
    {
      seg_base = sec.sec_addr;
      seg_limit = sec.sec_addr + n;
      data = sec.sec_data;
      sizes;
      memo = Array.make ((n + chunk_size - 1) lsr chunk_bits) [||];
    }

  let rec seg_at segs pc i =
    if i >= Array.length segs then
      raise (Sim_error (Printf.sprintf "jump outside text: %#x" pc))
    else
      let s = Array.unsafe_get segs i in
      if pc >= s.seg_base && pc < s.seg_limit then s else seg_at segs pc (i + 1)

  let decode_into s chunk off =
    let i, _ = Codec.decode s.data off in
    chunk.(off land (chunk_size - 1)) <- i;
    i

  (* The instruction starting at [off], which [sizes] says is a start. *)
  let insn_at s off =
    let k = off lsr chunk_bits in
    let chunk =
      let c = Array.unsafe_get s.memo k in
      if Array.length c > 0 then c
      else begin
        let c = Array.make chunk_size undecoded in
        s.memo.(k) <- c;
        c
      end
    in
    let i = Array.unsafe_get chunk (off land (chunk_size - 1)) in
    if i != undecoded then i else decode_into s chunk off

  let load (exe : Objfile.t) : image =
    if exe.kind <> Objfile.Executable then raise (Sim_error "not an executable");
    let mem = Memory.create () in
    let segs = ref [] in
    List.iter
      (fun (s : Types.section) ->
        (match s.sec_kind with
        | Types.Bss -> () (* zero-initialised by sparse memory *)
        | _ -> Memory.load_bytes mem s.sec_addr s.sec_data);
        if s.sec_kind = Types.Text then segs := predecode s :: !segs)
      exe.sections;
    {
      segs = Array.of_list (List.rev !segs);
      funcs = Symtab.create exe.symbols;
      meta = Objfile.Index.create exe;
      entry = exe.entry;
      mem;
    }

  (* ---- execution ---- *)

  type lbr_ring = {
    lfrom : int array;
    lto : int array;
    lmis : bool array;
    mutable lpos : int;
    mutable lcount : int;
  }

  let lbr_depth = 32

  let new_lbr () =
    {
      lfrom = Array.make lbr_depth 0;
      lto = Array.make lbr_depth 0;
      lmis = Array.make lbr_depth false;
      lpos = 0;
      lcount = 0;
    }

  let lbr_record r f t m =
    r.lfrom.(r.lpos) <- f;
    r.lto.(r.lpos) <- t;
    r.lmis.(r.lpos) <- m;
    r.lpos <- (r.lpos + 1) mod lbr_depth;
    if r.lcount < lbr_depth then r.lcount <- r.lcount + 1

  let run ?(config = default_config) ?(sampling : sample_cfg option)
      ?(heatmap = false) ?(fuel = 2_000_000_000) (exe : Objfile.t) ~(input : int array) :
      outcome =
    let img = load exe in
    let mem = img.mem in
    let c = new_counters () in
    let l1i = Cache.create ~size:config.l1i_size ~line:config.line ~assoc:4 in
    let l1d = Cache.create ~size:config.l1d_size ~line:config.line ~assoc:4 in
    let l2 = Cache.create ~size:config.l2_size ~line:config.line ~assoc:8 in
    let llc = Cache.create ~size:config.llc_size ~line:config.line ~assoc:16 in
    let itlb = Cache.create ~size:(config.itlb_entries * config.page) ~line:config.page ~assoc:4 in
    let dtlb = Cache.create ~size:(config.dtlb_entries * config.page) ~line:config.page ~assoc:4 in
    let bp = Bpred.create () in
    let lbr = new_lbr () in
    let heat = if heatmap then Some (Hashtbl.create 4096) else None in
    let prof = Option.map (fun (s : sample_cfg) -> new_raw_profile s.lbr) sampling in
    let regs = Array.make 16 0 in
    regs.(Reg.to_int Reg.sp) <- Layout.stack_top;
    let flags = ref 0 in
    let input_pos = ref 0 in
    let output = ref [] in
    let ip = ref img.entry in
    let running = ref true in
    let exit_code = ref 0 in
    let uncaught = ref false in
    let cur_line = ref (-1) in
    (* sentinel return address: returning to 0 exits *)
    regs.(15) <- regs.(15) - 8;
    Memory.write64 mem regs.(15) 0;

    let daccess addr =
      c.l1d_accesses <- c.l1d_accesses + 1;
      if not (Cache.access dtlb addr) then begin
        c.dtlb_misses <- c.dtlb_misses + 1;
        c.qcycles <- c.qcycles + config.q_tlb_miss
      end;
      if not (Cache.access l1d addr) then begin
        c.l1d_misses <- c.l1d_misses + 1;
        c.qcycles <- c.qcycles + config.q_l1_miss;
        if not (Cache.access l2 addr) then begin
          c.l2_misses <- c.l2_misses + 1;
          c.qcycles <- c.qcycles + config.q_l2_miss;
          if not (Cache.access llc addr) then begin
            c.llc_misses <- c.llc_misses + 1;
            c.qcycles <- c.qcycles + config.q_llc_miss
          end
        end
      end
    in
    let read_mem addr =
      daccess addr;
      Memory.read64 mem addr
    in
    let write_mem addr v =
      daccess addr;
      Memory.write64 mem addr v
    in
    let push v =
      regs.(15) <- regs.(15) - 8;
      write_mem regs.(15) v
    in
    let pop () =
      let v = read_mem regs.(15) in
      regs.(15) <- regs.(15) + 8;
      v
    in

    (* front-end charge when the fetch line changes *)
    let fetch addr =
      let line = addr lsr 6 in
      if line <> !cur_line then begin
        cur_line := line;
        c.l1i_accesses <- c.l1i_accesses + 1;
        (match heat with
        | Some h ->
            let key = line lsl 6 in
            Hashtbl.replace h key (1 + try Hashtbl.find h key with Not_found -> 0)
        | None -> ());
        if not (Cache.access itlb addr) then begin
          c.itlb_misses <- c.itlb_misses + 1;
          c.qcycles <- c.qcycles + config.q_tlb_miss
        end;
        if not (Cache.access l1i addr) then begin
          c.l1i_misses <- c.l1i_misses + 1;
          c.qcycles <- c.qcycles + config.q_l1_miss;
          if not (Cache.access l2 addr) then begin
            c.l2_misses <- c.l2_misses + 1;
            c.qcycles <- c.qcycles + config.q_l2_miss;
            if not (Cache.access llc addr) then begin
              c.llc_misses <- c.llc_misses + 1;
              c.qcycles <- c.qcycles + config.q_llc_miss
            end
          end
        end
      end
    in

    (* taken control transfer bookkeeping *)
    let taken_to ~from ~target ~mispred =
      c.taken_branches <- c.taken_branches + 1;
      c.qcycles <- c.qcycles + config.q_taken;
      if mispred then begin
        c.branch_misses <- c.branch_misses + 1;
        c.qcycles <- c.qcycles + config.q_mispredict
      end;
      lbr_record lbr from target mispred;
      ip := target
    in

    (* ---- exception unwinding ---- *)
    let landing_sp fp (state : Types.cfi_state) =
      fp - state.cfa_locals - (8 * List.length state.cfa_saved)
    in
    let rec unwind at_ip =
      match Symtab.covering img.funcs at_ip with
      | None -> None
      | Some fn -> (
          let start = fn.Types.sym_value in
          let fde = Objfile.Index.fde img.meta start in
          let off = at_ip - start in
          let pad =
            match Objfile.Index.lsda img.meta start with
            | None -> None
            | Some l ->
                List.find_opt
                  (fun (e : Types.lsda_entry) ->
                    off >= e.lsda_start && off < e.lsda_start + e.lsda_len)
                  l.lsda_entries
          in
          match pad with
          | Some e -> (
              (* the stack pointer the landing pad expects is derived from
                 the frame state at the covered call site; the pad itself may
                 live in a split-off cold fragment with its own descriptor *)
              match fde with
              | Some fde ->
                  let st = Types.cfi_state_at fde.fde_cfi off in
                  if st.cfa_established then begin
                    regs.(15) <- landing_sp regs.(14) st;
                    Some (start + e.lsda_pad)
                  end
                  else Some (start + e.lsda_pad)
              | None -> Some (start + e.lsda_pad))
          | None -> (
              (* pop this frame and continue in the caller *)
              match fde with
              | None -> None (* can't unwind through frame-info-less code *)
              | Some fde ->
                  let st = Types.cfi_state_at fde.fde_cfi off in
                  let ret =
                    if st.cfa_established then begin
                      let fp = regs.(14) in
                      List.iter
                        (fun (r, slot) ->
                          regs.(Reg.to_int r) <- Memory.read64 mem (fp - slot))
                        st.cfa_saved;
                      let ret = Memory.read64 mem (fp + 8) in
                      regs.(15) <- fp + 16;
                      regs.(14) <- Memory.read64 mem fp;
                      ret
                    end
                    else begin
                      let ret = Memory.read64 mem regs.(15) in
                      regs.(15) <- regs.(15) + 8;
                      ret
                    end
                  in
                  if ret = 0 then None else unwind (ret - 1)))
    in

    (* ---- sampling ---- *)
    let sample_due = ref max_int in
    let event_count () =
      match sampling with
      | None -> 0
      | Some s -> (
          match s.event with
          | Ev_cycles -> c.qcycles
          | Ev_instructions -> c.instructions
          | Ev_taken_branches -> c.taken_branches)
    in
    (match sampling with Some s -> sample_due := s.period | None -> ());
    let skid_pending = ref false in
    let take_sample () =
      match (sampling, prof) with
      | Some s, Some p ->
          p.rp_samples <- p.rp_samples + 1;
          if s.lbr then begin
            (* read the full LBR stack *)
            let n = lbr.lcount in
            for k = 0 to n - 1 do
              let idx = (lbr.lpos - n + k + (2 * lbr_depth)) mod lbr_depth in
              let f = lbr.lfrom.(idx) and t = lbr.lto.(idx) in
              (match Hashtbl.find_opt p.rp_branches (f, t) with
              | Some (cnt, mis) ->
                  incr cnt;
                  if lbr.lmis.(idx) then incr mis
              | None ->
                  Hashtbl.add p.rp_branches (f, t)
                    (ref 1, ref (if lbr.lmis.(idx) then 1 else 0)));
              if k + 1 < n then begin
                let idx' = (idx + 1) mod lbr_depth in
                let start = t and stop = lbr.lfrom.(idx') in
                if stop >= start && stop - start < 65536 then
                  match Hashtbl.find_opt p.rp_traces (start, stop) with
                  | Some r -> incr r
                  | None -> Hashtbl.add p.rp_traces (start, stop) (ref 1)
              end
            done
          end
          else begin
            let key = !ip in
            match Hashtbl.find_opt p.rp_ips key with
            | Some r -> incr r
            | None -> Hashtbl.add p.rp_ips key (ref 1)
          end
      | _ -> ()
    in

    (* ---- main loop ---- *)
    while !running do
      if c.instructions > fuel then raise (Sim_error "out of fuel");
      let pc = !ip in
      fetch pc;
      let s = seg_at img.segs pc 0 in
      let off = pc - s.seg_base in
      let sz = Char.code (Bytes.unsafe_get s.sizes off) in
      if sz = 0 then raise (Sim_error (Printf.sprintf "misaligned execution at %#x" pc));
      let insn = insn_at s off in
      let next = pc + sz in
      c.instructions <- c.instructions + 1;
      c.qcycles <- c.qcycles + config.q_base;
      ip := next;
      (match insn with
      | Insn.Halt ->
          exit_code := regs.(0);
          running := false
      | Insn.Nop _ -> ()
      | Insn.Ret | Insn.Repz_ret ->
          let target = pop () in
          let mispred = Bpred.pop_ras bp target in
          if target = 0 then begin
            exit_code := regs.(0);
            running := false
          end
          else taken_to ~from:pc ~target ~mispred
      | Insn.Push r -> push regs.(Reg.to_int r)
      | Insn.Pop r -> regs.(Reg.to_int r) <- pop ()
      | Insn.Mov_rr (d, s) -> regs.(Reg.to_int d) <- regs.(Reg.to_int s)
      | Insn.Mov_ri (d, Insn.Imm v, _) -> regs.(Reg.to_int d) <- v
      | Insn.Load (d, b, off) -> regs.(Reg.to_int d) <- read_mem (regs.(Reg.to_int b) + off)
      | Insn.Store (b, off, s) -> write_mem (regs.(Reg.to_int b) + off) regs.(Reg.to_int s)
      | Insn.Load_abs (d, Insn.Imm a) -> regs.(Reg.to_int d) <- read_mem a
      | Insn.Store_abs (Insn.Imm a, s) -> write_mem a regs.(Reg.to_int s)
      | Insn.Lea (d, Insn.Imm a) -> regs.(Reg.to_int d) <- a
      | Insn.Lea_rel (d, Insn.Imm disp) -> regs.(Reg.to_int d) <- next + disp
      | Insn.Alu_rr (op, d, s) ->
          let a = regs.(Reg.to_int d) and b = regs.(Reg.to_int s) in
          (match op with
          | Insn.Cmp -> flags := compare a b
          | Insn.Test -> flags := compare (a land b) 0
          | Insn.Add -> regs.(Reg.to_int d) <- a + b
          | Insn.Sub -> regs.(Reg.to_int d) <- a - b
          | Insn.Mul -> regs.(Reg.to_int d) <- a * b
          | Insn.Div -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a / b)
          | Insn.Mod -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a mod b)
          | Insn.And -> regs.(Reg.to_int d) <- a land b
          | Insn.Or -> regs.(Reg.to_int d) <- a lor b
          | Insn.Xor -> regs.(Reg.to_int d) <- a lxor b
          | Insn.Shl -> regs.(Reg.to_int d) <- a lsl (b land 63)
          | Insn.Shr -> regs.(Reg.to_int d) <- a asr (b land 63))
      | Insn.Alu_ri (op, d, Insn.Imm b) ->
          let a = regs.(Reg.to_int d) in
          (match op with
          | Insn.Cmp -> flags := compare a b
          | Insn.Test -> flags := compare (a land b) 0
          | Insn.Add -> regs.(Reg.to_int d) <- a + b
          | Insn.Sub -> regs.(Reg.to_int d) <- a - b
          | Insn.Mul -> regs.(Reg.to_int d) <- a * b
          | Insn.Div -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a / b)
          | Insn.Mod -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a mod b)
          | Insn.And -> regs.(Reg.to_int d) <- a land b
          | Insn.Or -> regs.(Reg.to_int d) <- a lor b
          | Insn.Xor -> regs.(Reg.to_int d) <- a lxor b
          | Insn.Shl -> regs.(Reg.to_int d) <- a lsl (b land 63)
          | Insn.Shr -> regs.(Reg.to_int d) <- a asr (b land 63))
      | Insn.Setcc (cond, r) ->
          regs.(Reg.to_int r) <- (if Cond.holds cond !flags then 1 else 0)
      | Insn.Jmp (Insn.Imm rel, _) ->
          c.branches <- c.branches + 1;
          let target = next + rel in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jcc (cond, Insn.Imm rel, _) ->
          c.branches <- c.branches + 1;
          c.cond_branches <- c.cond_branches + 1;
          let taken = Cond.holds cond !flags in
          let dir_mis = Bpred.cond_branch bp pc taken in
          if taken then begin
            c.cond_taken <- c.cond_taken + 1;
            taken_to ~from:pc ~target:(next + rel) ~mispred:dir_mis
          end
          else if dir_mis then begin
            c.branch_misses <- c.branch_misses + 1;
            c.qcycles <- c.qcycles + config.q_mispredict
          end
      | Insn.Call (Insn.Imm rel) ->
          c.branches <- c.branches + 1;
          c.calls <- c.calls + 1;
          push next;
          Bpred.push_ras bp next;
          let target = next + rel in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Call_ind r ->
          c.branches <- c.branches + 1;
          c.calls <- c.calls + 1;
          let target = regs.(Reg.to_int r) in
          push next;
          Bpred.push_ras bp next;
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Call_mem (Insn.Imm slot) ->
          c.branches <- c.branches + 1;
          c.calls <- c.calls + 1;
          let target = read_mem slot in
          push next;
          Bpred.push_ras bp next;
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jmp_ind r ->
          c.branches <- c.branches + 1;
          let target = regs.(Reg.to_int r) in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jmp_mem (Insn.Imm slot) ->
          c.branches <- c.branches + 1;
          let target = read_mem slot in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.In_ r ->
          regs.(Reg.to_int r) <-
            (if !input_pos < Array.length input then begin
               let v = input.(!input_pos) in
               incr input_pos;
               v
             end
             else 0)
      | Insn.Out r -> output := regs.(Reg.to_int r) :: !output
      | Insn.Throw -> (
          c.throws <- c.throws + 1;
          match unwind pc with
          | Some pad ->
              c.qcycles <- c.qcycles + (config.q_mispredict * 4);
              cur_line := -1;
              ip := pad
          | None ->
              uncaught := true;
              exit_code := -1;
              running := false)
      | Insn.Mov_ri (_, Insn.Sym _, _)
      | Insn.Load_abs (_, Insn.Sym _)
      | Insn.Store_abs (Insn.Sym _, _)
      | Insn.Lea (_, Insn.Sym _)
      | Insn.Lea_rel (_, Insn.Sym _)
      | Insn.Alu_ri (_, _, Insn.Sym _)
      | Insn.Jmp (Insn.Sym _, _)
      | Insn.Jcc (_, Insn.Sym _, _)
      | Insn.Call (Insn.Sym _)
      | Insn.Call_mem (Insn.Sym _)
      | Insn.Jmp_mem (Insn.Sym _) ->
          raise (Sim_error "unresolved symbol in executable"));
      (* sampling *)
      (match sampling with
      | Some s ->
          if !skid_pending then begin
            skid_pending := false;
            take_sample ()
          end;
          if event_count () >= !sample_due then begin
            sample_due := !sample_due + s.period;
            if s.precise then take_sample () else skid_pending := true
          end
      | None -> ())
    done;
    {
      exit_code = !exit_code;
      output = List.rev !output;
      counters = c;
      profile = prof;
      heat;
      uncaught_exception = !uncaught;
      final_mem = mem;
    }
end

(* The three readers of the profile as they were before the profile
   view, kept verbatim but for naming blocks by id and summing counts
   saturating at [max_int]: [Match_profile.attach] looks each record's
   functions up by name and builds offset maps in tables;
   [Icp.build_site_profile] reads every call record again into a table
   keyed by (caller, offset); [Callgraph.of_profile] reads them a third
   time, with each function's events from [Fdata.func_events]. *)
module Match_profile = struct
  open Bolt_core
  open Bfunc

  (* offset -> block id lookup per function *)
  let offset_maps (fb : Bfunc.t) =
    let starts = Hashtbl.create 32 in
    let spans = ref [] in
    Array.iteri
      (fun l b ->
        if b.b_off >= 0 then begin
          Hashtbl.replace starts b.b_off l;
          spans := (b.b_off, l) :: !spans
        end)
      fb.blocks;
    let arr = Array.of_list (List.sort compare !spans) in
    let containing off =
      (* greatest block start <= off *)
      let lo = ref 0 and hi = ref (Array.length arr - 1) in
      let res = ref None in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let o, l = arr.(mid) in
        if o <= off then begin
          res := Some l;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      !res
    in
    (starts, containing, arr)

  let attach ctx (prof : Bolt_profile.Fdata.t) : Match_profile.stats =
    (* profile counts are saturating int64; CFG machinery runs on native
       ints, so clamp at the boundary, and sum saturating *)
    let c64 = Bolt_profile.Fdata.clamp_int in
    let sat = Bolt_profile.Fdata.sat_add_int in
    let st =
      {
        Match_profile.matched_branches = 0;
        unmatched_branches = 0;
        matched_count = 0;
        unmatched_count = 0;
        stale_records = 0;
        unknown_funcs = 0;
      }
    in
    (* A stale profile names functions that no longer exist and offsets the
       code has drifted past.  Both degrade that function's profile to
       unmatched/partial — never an exception, never mis-attribution to
       whatever block happens to sit at the bad offset. *)
    let unknown = Hashtbl.create 16 in
    (* names in the symbol table that aren't optimizable functions (plt
       stubs, data symbols) are legitimately unattachable — only names
       absent from the binary altogether hint at a stale profile *)
    let known_syms = Hashtbl.create 64 in
    List.iter
      (fun (s : Bolt_obj.Types.symbol) -> Hashtbl.replace known_syms s.sym_name ())
      ctx.Context.exe.Bolt_obj.Objfile.symbols;
    let note_unknown name =
      if (not (Hashtbl.mem known_syms name)) && not (Hashtbl.mem unknown name)
      then begin
        Hashtbl.replace unknown name ();
        Diag.warnf ctx.Context.diag ~stage:"match-profile" ~func:name
          "profile names a function not in the binary (stale profile?)"
      end
    in
    let stale fb what off =
      st.stale_records <- st.stale_records + 1;
      Diag.warnf ctx.Context.diag ~stage:"match-profile" ~func:fb.fb_name
        "%s offset %d outside function of size %d (stale profile?)" what off
        fb.fb_size
    in
    let in_bounds fb off = off >= 0 && off < fb.fb_size in
    let maps = Hashtbl.create 64 in
    let map_of fb =
      match Hashtbl.find_opt maps fb.fb_name with
      | Some m -> m
      | None ->
          let m = offset_maps fb in
          Hashtbl.add maps fb.fb_name m;
          m
    in
    (* 1. taken-branch records -> edges; call records -> entry counts *)
    List.iter
      (fun (b : Bolt_profile.Fdata.branch) ->
        if b.br_from_func = b.br_to_func then begin
          match Context.func ctx b.br_from_func with
          | Some fb when fb.simple ->
              let drop () =
                st.unmatched_branches <- st.unmatched_branches + 1;
                st.unmatched_count <- st.unmatched_count + c64 b.br_count
              in
              if not (in_bounds fb b.br_from_off) then begin
                stale fb "branch source" b.br_from_off;
                drop ()
              end
              else if not (in_bounds fb b.br_to_off) then begin
                stale fb "branch target" b.br_to_off;
                drop ()
              end
              else begin
                let starts, containing, _ = map_of fb in
                let src = containing b.br_from_off in
                let dst = Hashtbl.find_opt starts b.br_to_off in
                match (src, dst) with
                | Some s, Some d ->
                    add_edge_count fb.blocks.(s) d (c64 b.br_count) (c64 b.br_mispreds);
                    st.matched_branches <- st.matched_branches + 1;
                    st.matched_count <- st.matched_count + c64 b.br_count
                | _ -> drop ()
              end
          | Some _ -> ()
          | None ->
              note_unknown b.br_from_func;
              st.unmatched_branches <- st.unmatched_branches + 1;
              st.unmatched_count <- st.unmatched_count + c64 b.br_count
        end
        else if b.br_to_off = 0 then begin
          (* a call (or tail transfer) into the target's entry *)
          match Context.func ctx b.br_to_func with
          | Some fb -> fb.exec_count <- sat fb.exec_count (c64 b.br_count)
          | None -> note_unknown b.br_to_func
        end)
      prof.branches;
    (* 2. fall-through ranges: block counts + non-taken edge counts *)
    List.iter
      (fun (r : Bolt_profile.Fdata.range) ->
        match Context.func ctx r.rg_func with
        | Some fb when fb.simple && not (in_bounds fb r.rg_start) ->
            stale fb "range start" r.rg_start
        | Some fb when fb.simple ->
            (* a range end past the function still profiles the prefix *)
            if not (in_bounds fb r.rg_end) then stale fb "range end" r.rg_end;
            let _, _, arr = map_of fb in
            (* the blocks starting in [rg_start, rg_end]: a binary search
               for the first, then a walk while the start is in range *)
            let covered =
              let lo = ref 0 and hi = ref (Array.length arr) in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if fst arr.(mid) < r.rg_start then lo := mid + 1 else hi := mid
              done;
              let last = ref !lo in
              while !last < Array.length arr && fst arr.(!last) <= r.rg_end do
                incr last
              done;
              let acc = ref [] in
              for k = !last - 1 downto !lo do
                acc := arr.(k) :: !acc
              done;
              !acc
            in
            (* the block containing rg_start is covered too if it starts earlier *)
            let covered =
              let _, containing, _ = map_of fb in
              match containing r.rg_start with
              | Some l when not (List.exists (fun (_, l') -> l' = l) covered) ->
                  ((-1), l) :: covered
              | _ -> covered
            in
            let rec pairs = function
              | (_, a) :: ((_, b) :: _ as rest) ->
                  (* sequential flow between adjacent covered blocks *)
                  let ba = fb.blocks.(a) in
                  (match ba.term with
                  | T_cond (_, _, fall) when fall = b ->
                      add_edge_count ba b (c64 r.rg_count) 0
                  | T_jump t when t = b -> add_edge_count ba b (c64 r.rg_count) 0
                  | _ -> ());
                  pairs rest
              | _ -> ()
            in
            pairs covered;
            List.iter
              (fun (_, l) ->
                let b = fb.blocks.(l) in
                b.ecount <- sat b.ecount (c64 r.rg_count))
              covered
        | Some _ -> ()
        | None -> note_unknown r.rg_func)
      prof.ranges;
    (* 3. non-LBR: block counts from IP samples *)
    if not prof.lbr then
      List.iter
        (fun (s : Bolt_profile.Fdata.sample) ->
          match Context.func ctx s.sm_func with
          | Some fb when fb.simple && not (in_bounds fb s.sm_off) ->
              stale fb "sample" s.sm_off
          | Some fb when fb.simple -> (
              let _, containing, _ = map_of fb in
              match containing s.sm_off with
              | Some l ->
                  let b = fb.blocks.(l) in
                  b.ecount <- sat b.ecount (c64 s.sm_count)
              | None -> ())
          | Some fb -> fb.exec_count <- sat fb.exec_count (c64 s.sm_count)
          | None -> note_unknown s.sm_func)
        prof.samples;
    st.unknown_funcs <- Hashtbl.length unknown;
    st
end

module Icp = struct
  open Bolt_core

  type site_profile = (string * int, (string * int) list) Hashtbl.t

  let build_site_profile ctx (prof : Bolt_profile.Fdata.t) : site_profile =
    let h = Hashtbl.create 64 in
    List.iter
      (fun (b : Bolt_profile.Fdata.branch) ->
        if b.br_from_func <> b.br_to_func && b.br_to_off = 0 then begin
          (* keep only records whose source is an indirect call instruction *)
          match Context.func ctx b.br_from_func with
          | Some fb when fb.simple ->
              let key = (b.br_from_func, b.br_from_off) in
              Hashtbl.replace h key
                ((b.br_to_func, Bolt_profile.Fdata.clamp_int b.br_count)
                :: (try Hashtbl.find h key with Not_found -> []))
          | _ -> ()
        end)
      prof.branches;
    h
end

(* The layout layer as it was before it moved onto int arrays: the
   tuple-keyed [Cfg.make] with succ lists, the chain pool over it, the
   ExtTSP score and fall-through weight, the evaluator counting lines
   and pages with a never-evicting [Bolt_sim.Cache], the engine whose
   ext-tsp loop sorts every candidate pair each round and builds every
   split arrangement, and HFSort over the string-keyed call graph,
   projected onto ids for every order.  The changes to their semantics:
   call weights sum saturating at [max_int] in [Callgraph], and so do
   cluster weights in [Chain.replace] and inter-cluster weights in
   [Order.hfsort_plus], as they now do in production. *)

module Cfg = struct
  type node = {
    n_label : string;  (* block label / function name, for reporting *)
    n_size : int;      (* bytes (or a byte proxy) occupied by the node *)
    n_count : int;     (* execution count / samples *)
  }

  type t = {
    nodes : node array;
    entry : int;  (* index of the entry node, or -1 when order-free *)
    edges : (int * int * int) array;
        (* (src, dst, count), deduplicated, sorted by count desc then
           (src, dst) asc — the deterministic hot-first order every greedy
           consumer wants *)
    succ : (int * int) list array;  (* per-node out-edges, same sort *)
  }

  let node_count t = Array.length t.nodes
  let size t i = t.nodes.(i).n_size
  let count t i = t.nodes.(i).n_count
  let label t i = t.nodes.(i).n_label

  (* Build a graph.  Self-edges, non-positive counts and out-of-range
     endpoints are dropped; parallel edges are summed.  The edge sort is
     total (count desc, then (src, dst) asc), so downstream greedy loops
     are deterministic no matter what order edges arrive in. *)
  let make ~nodes ?(entry = -1) edges =
    let n = Array.length nodes in
    let tbl = Hashtbl.create (List.length edges * 2 + 1) in
    List.iter
      (fun (s, d, c) ->
        if s <> d && c > 0 && s >= 0 && s < n && d >= 0 && d < n then
          match Hashtbl.find_opt tbl (s, d) with
          | Some r -> r := !r + c
          | None -> Hashtbl.add tbl (s, d) (ref c))
      edges;
    let edges =
      Hashtbl.fold (fun (s, d) c acc -> (s, d, !c) :: acc) tbl []
      |> List.sort (fun (s1, d1, a) (s2, d2, b) ->
             if a <> b then Int.compare b a
             else if s1 <> s2 then Int.compare s1 s2
             else Int.compare d1 d2)
      |> Array.of_list
    in
    let succ = Array.make (max n 1) [] in
    Array.iter (fun (s, d, c) -> succ.(s) <- (d, c) :: succ.(s)) edges;
    Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
    let entry = if entry >= 0 && entry < n then entry else -1 in
    { nodes; entry; edges; succ }

  let total_size t = Array.fold_left (fun a n -> a + n.n_size) 0 t.nodes

  (* The identity permutation: the layout the graph was built from. *)
  let identity t = Array.init (node_count t) (fun i -> i)
end

module Chain = struct
  type t = {
    blocks : int array array;  (* chain id -> member nodes; [||] = dead *)
    node_chain : int array;    (* node id -> chain id *)
    weight : int array;        (* chain id -> summed node counts *)
    size : int array;          (* chain id -> summed node sizes *)
    mutable live : int;
  }

  let create (cfg : Cfg.t) =
    let n = Cfg.node_count cfg in
    {
      blocks = Array.init n (fun i -> [| i |]);
      node_chain = Array.init n (fun i -> i);
      weight = Array.init n (fun i -> Cfg.count cfg i);
      size = Array.init n (fun i -> Cfg.size cfg i);
      live = n;
    }

  let chain_of t node = t.node_chain.(node)
  let alive t c = Array.length t.blocks.(c) > 0
  let blocks t c = t.blocks.(c)
  let weight t c = t.weight.(c)
  let size t c = t.size.(c)
  let length t c = Array.length t.blocks.(c)
  let head t c = t.blocks.(c).(0)
  let tail t c = let b = t.blocks.(c) in b.(Array.length b - 1)

  (* Live chain ids in ascending order — the deterministic iteration
     order for final emission. *)
  let live_chains t =
    let acc = ref [] in
    for c = Array.length t.blocks - 1 downto 0 do
      if alive t c then acc := c :: !acc
    done;
    !acc

  (* Replace chains [keep] and [drop] by [merged], which must be a
     permutation of their combined blocks (the caller decides the
     arrangement: XY, YX, or a split like X1·Y·X2). *)
  let replace t ~keep ~drop merged =
    if keep = drop || not (alive t keep) || not (alive t drop) then
      invalid_arg "Chain.replace: need two distinct live chains";
    if Array.length merged <> length t keep + length t drop then
      invalid_arg "Chain.replace: arrangement loses or duplicates blocks";
    t.blocks.(keep) <- merged;
    t.blocks.(drop) <- [||];
    t.weight.(keep) <- Bolt_profile.Fdata.sat_add_int t.weight.(keep) t.weight.(drop);
    t.weight.(drop) <- 0;
    t.size.(keep) <- t.size.(keep) + t.size.(drop);
    t.size.(drop) <- 0;
    Array.iter (fun node -> t.node_chain.(node) <- keep) merged;
    t.live <- t.live - 1

  (* Tail-to-head concatenation, the classic Pettis-Hansen move. *)
  let append t ~into other =
    replace t ~keep:into ~drop:other (Array.append t.blocks.(into) t.blocks.(other))

  (* Emit [chains] in the given order as one flat node order. *)
  let emit t chains =
    Array.concat (List.map (fun c -> t.blocks.(c)) chains)
end

module Exttsp = struct
  let score_edge = Bolt_layout.Exttsp.score_edge

  (* Score a full layout: [order] is a permutation of the graph's nodes
     (or a subset — edges with an unplaced endpoint count zero). *)
  let score (cfg : Cfg.t) (order : int array) =
    let n = Cfg.node_count cfg in
    let addr = Array.make n (-1) in
    let a = ref 0 in
    Array.iter
      (fun b ->
        addr.(b) <- !a;
        a := !a + Cfg.size cfg b)
      order;
    let total = ref 0.0 in
    Array.iter
      (fun b ->
        let src_end = addr.(b) + Cfg.size cfg b in
        List.iter
          (fun (d, c) ->
            if addr.(d) >= 0 then
              total := !total +. score_edge ~src_end ~dst:addr.(d) c)
          cfg.Cfg.succ.(b))
      order;
    !total

  (* The fall-through component alone: summed counts of edges whose
     destination is laid out immediately after their source.  A function's
     estimated taken-branch count is its total branch weight minus exactly
     this, so comparing layouts by [fallthroughs] compares their taken
     branches with the sign flipped. *)
  let fallthroughs (cfg : Cfg.t) (order : int array) =
    let next = Array.make (Cfg.node_count cfg) (-1) in
    let last = Array.length order - 1 in
    Array.iteri (fun i b -> if i < last then next.(b) <- order.(i + 1)) order;
    Array.fold_left
      (fun acc (s, d, c) -> if next.(s) = d then acc + c else acc)
      0 cfg.Cfg.edges
end

module Evaluator = struct
  (* A never-evicting counter of distinct lines: one set, enough ways for
     every line the layout could touch. *)
  let distinct_line_counter ~line ~total_size =
    let ways = max 4 ((total_size / line) + 2) in
    Bolt_sim.Cache.create ~size:(line * ways) ~line ~assoc:ways

  let evaluate ?(line = 64) ?(page = 4096) (cfg : Cfg.t) (order : int array) =
    let total_size = max 1 (Cfg.total_size cfg) in
    let lines = distinct_line_counter ~line ~total_size in
    let pages = distinct_line_counter ~line:page ~total_size in
    let addr = ref 0 in
    let hot_bytes = ref 0 in
    Array.iter
      (fun b ->
        let sz = Cfg.size cfg b in
        if Cfg.count cfg b > 0 && sz > 0 then begin
          hot_bytes := !hot_bytes + sz;
          let first = !addr / line and last = (!addr + sz - 1) / line in
          for l = first to last do
            ignore (Bolt_sim.Cache.access lines (l * line))
          done;
          let firstp = !addr / page and lastp = (!addr + sz - 1) / page in
          for p = firstp to lastp do
            ignore (Bolt_sim.Cache.access pages (p * page))
          done
        end;
        addr := !addr + sz)
      order;
    {
      Bolt_layout.Evaluator.ev_score = Exttsp.score cfg order;
      ev_hot_bytes = !hot_bytes;
      ev_icache_lines = lines.Bolt_sim.Cache.misses;
      ev_itlb_pages = pages.Bolt_sim.Cache.misses;
    }
end

module Engine = struct
  type algo = Bolt_layout.Engine.algo = Cache | Cache_plus | Ext_tsp

  (* Entry chain first, then weight desc, chain id asc — and any node the
     merge loops never reached (there are none today, but keep the
     contract total) would simply still be its own chain. *)
  let final_order (cfg : Cfg.t) pool =
    let chains = Chain.live_chains pool in
    let entry_c, rest =
      if cfg.Cfg.entry >= 0 then
        List.partition (fun c -> c = Chain.chain_of pool cfg.Cfg.entry) chains
      else ([], chains)
    in
    let rest =
      List.sort
        (fun a b ->
          let wa = Chain.weight pool a and wb = Chain.weight pool b in
          if wa <> wb then compare wb wa else compare a b)
        rest
    in
    Chain.emit pool (entry_c @ rest)

  let cache (cfg : Cfg.t) =
    let pool = Chain.create cfg in
    Array.iter
      (fun (s, d, _) ->
        let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
        if ca <> cb && Chain.tail pool ca = s && Chain.head pool cb = d
           && d <> cfg.Cfg.entry
        then Chain.append pool ~into:ca cb)
      cfg.Cfg.edges;
    final_order cfg pool

  let cache_plus (cfg : Cfg.t) =
    let pool = Chain.create cfg in
    let w = Hashtbl.create 64 in
    Array.iter (fun (s, d, c) -> Hashtbl.replace w (s, d) c) cfg.Cfg.edges;
    let seam a b = Option.value ~default:0 (Hashtbl.find_opt w (a, b)) in
    Array.iter
      (fun (s, d, _) ->
        let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
        if ca <> cb then begin
          let seam_ab = seam (Chain.tail pool ca) (Chain.head pool cb) in
          let seam_ba = seam (Chain.tail pool cb) (Chain.head pool ca) in
          if seam_ab >= seam_ba && Chain.head pool cb <> cfg.Cfg.entry
             && seam_ab > 0
          then Chain.append pool ~into:ca cb
          else if seam_ba > 0 && Chain.head pool ca <> cfg.Cfg.entry then
            Chain.append pool ~into:cb ca
        end)
      cfg.Cfg.edges;
    final_order cfg pool

  (* ---- ext-tsp ---- *)

  (* Split bounds: arrangements with a split point are tried only for
     chains of at most [split_threshold] blocks, and only while the whole
     function stays under [split_node_limit] blocks — past that the
     quadratic split enumeration stops paying for itself. *)
  let split_threshold = 128
  let split_node_limit = 512
  let epsilon = 1e-9

  let ext_tsp_merge (cfg : Cfg.t) =
    let n = Cfg.node_count cfg in
    let pool = Chain.create cfg in
    (* arrangement scoring with stamped addresses: only edges with both
       ends inside the arrangement count, which is exactly the chain-local
       score the merge loop maximises *)
    let addr = Array.make n 0 in
    let stamp = Array.make n 0 in
    let clock = ref 0 in
    let score_arr arr =
      incr clock;
      let a = ref 0 in
      Array.iter
        (fun b ->
          stamp.(b) <- !clock;
          addr.(b) <- !a;
          a := !a + Cfg.size cfg b)
        arr;
      let t = ref 0.0 in
      Array.iter
        (fun b ->
          let src_end = addr.(b) + Cfg.size cfg b in
          List.iter
            (fun (d, c) ->
              if stamp.(d) = !clock then
                t := !t +. Exttsp.score_edge ~src_end ~dst:addr.(d) c)
            cfg.Cfg.succ.(b))
        arr;
      !t
    in
    (* self-edges are dropped at Cfg.make, so singletons score 0 *)
    let chain_score = Array.make n 0.0 in
    let entry = cfg.Cfg.entry in
    (* best arrangement of two live chains; returns (gain, score, arr) *)
    let best_merge a b =
      let xa = Chain.blocks pool a and xb = Chain.blocks pool b in
      let la = Array.length xa and lb = Array.length xb in
      let base = chain_score.(a) +. chain_score.(b) in
      let has_entry =
        entry >= 0 && (Chain.chain_of pool entry = a || Chain.chain_of pool entry = b)
      in
      let best = ref None in
      let consider arr =
        if (not has_entry) || arr.(0) = entry then begin
          let s = score_arr arr in
          let g = s -. base in
          match !best with
          | Some (bg, _, _) when g <= bg +. epsilon -> ()
          | _ -> best := Some (g, s, arr)
        end
      in
      consider (Array.append xa xb);
      consider (Array.append xb xa);
      if n <= split_node_limit then begin
        if la >= 2 && la <= split_threshold then
          for i = 1 to la - 1 do
            consider
              (Array.concat [ Array.sub xa 0 i; xb; Array.sub xa i (la - i) ])
          done;
        if lb >= 2 && lb <= split_threshold then
          for i = 1 to lb - 1 do
            consider
              (Array.concat [ Array.sub xb 0 i; xa; Array.sub xb i (lb - i) ])
          done
      end;
      !best
    in
    (* candidate pairs: chains connected by at least one edge *)
    let norm a b = if a < b then (a, b) else (b, a) in
    let pairs : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun (s, d, _) ->
        let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
        if ca <> cb then Hashtbl.replace pairs (norm ca cb) ())
      cfg.Cfg.edges;
    let gains : (int * int, (float * float * int array) option) Hashtbl.t =
      Hashtbl.create 64
    in
    let continue_ = ref true in
    while !continue_ && Hashtbl.length pairs > 0 do
      let keys =
        Hashtbl.fold (fun k () acc -> k :: acc) pairs [] |> List.sort compare
      in
      let best = ref None in
      List.iter
        (fun (a, b) ->
          let g =
            match Hashtbl.find_opt gains (a, b) with
            | Some g -> g
            | None ->
                let g = best_merge a b in
                Hashtbl.replace gains (a, b) g;
                g
          in
          match g with
          | Some (gain, score, arr) -> (
              match !best with
              | Some (bg, _, _, _, _) when gain <= bg +. epsilon -> ()
              | _ -> best := Some (gain, score, arr, a, b))
          | None -> ())
        keys;
      match !best with
      | Some (gain, score, arr, a, b) when gain > epsilon ->
          Chain.replace pool ~keep:a ~drop:b arr;
          chain_score.(a) <- score;
          (* rekey b's pairs onto a, and drop stale gains touching a or b *)
          let touched (x, y) = x = a || y = a || x = b || y = b in
          let old = Hashtbl.fold (fun k () acc -> k :: acc) pairs [] in
          List.iter
            (fun ((x, y) as k) ->
              if touched k then begin
                Hashtbl.remove pairs k;
                let partner = if x = a || x = b then y else x in
                if partner <> a && partner <> b then
                  Hashtbl.replace pairs (norm a partner) ()
              end)
            old;
          Hashtbl.iter
            (fun k _ -> if touched k then Hashtbl.remove gains k)
            (Hashtbl.copy gains)
      | _ -> continue_ := false
    done;
    final_order cfg pool

  let order algo (cfg : Cfg.t) =
    if Cfg.node_count cfg <= 1 then Cfg.identity cfg
    else
      match algo with
      | Cache -> cache cfg
      | Cache_plus -> cache_plus cfg
      | Ext_tsp ->
          (* Never-regress guard, two keys.  Among {ext-tsp, cache+,
             original}, keep the best under the objective (ties prefer
             ext-tsp) — but only candidates that keep at least cache+'s
             fall-through weight are eligible.  The objective's proximity
             terms can trade a fall-through for short-jump credit, which
             raises the score while raising taken branches too; pinning
             fall-through weight at the cache+ floor means switching the
             default to ext-tsp can only remove taken branches, never add
             them, while the score still never drops below cache+ (cache+
             itself always meets its own floor). *)
          let cp = cache_plus cfg in
          let floor = Exttsp.fallthroughs cfg cp in
          let candidates = [ ext_tsp_merge cfg; cp; Cfg.identity cfg ] in
          let scored =
            List.filter_map
              (fun o ->
                if Exttsp.fallthroughs cfg o >= floor then
                  Some (Exttsp.score cfg o, o)
                else None)
              candidates
          in
          let best =
            List.fold_left
              (fun (bs, bo) (s, o) ->
                if s > bs +. epsilon then (s, o) else (bs, bo))
              (List.hd scored) (List.tl scored)
          in
          snd best
end

module Callgraph = struct
  let sat_add a b = if a > max_int - b then max_int else a + b

  type node = { n_name : string; n_size : int; mutable n_samples : int }

  type t = {
    nodes : (string, node) Hashtbl.t;
    edges : (string * string, int ref) Hashtbl.t; (* caller, callee -> weight *)
  }

  let create () = { nodes = Hashtbl.create 256; edges = Hashtbl.create 1024 }

  let add_node g ~name ~size =
    if not (Hashtbl.mem g.nodes name) then
      Hashtbl.replace g.nodes name { n_name = name; n_size = size; n_samples = 0 }

  let node g name = Hashtbl.find_opt g.nodes name

  let add_samples g name c =
    match Hashtbl.find_opt g.nodes name with
    | Some n -> n.n_samples <- n.n_samples + c
    | None -> ()

  let add_edge g caller callee w =
    if w > 0 && Hashtbl.mem g.nodes caller && Hashtbl.mem g.nodes callee then
      match Hashtbl.find_opt g.edges (caller, callee) with
      | Some r -> r := sat_add !r w
      | None -> Hashtbl.add g.edges (caller, callee) (ref w)

  (* The hottest caller of each function; equal weights break towards the
     lexicographically smaller caller so the result does not depend on
     hashtable iteration order. *)
  let hottest_caller g =
    let best = Hashtbl.create 256 in
    Hashtbl.iter
      (fun (caller, callee) w ->
        if caller <> callee then
          match Hashtbl.find_opt best callee with
          | Some (bc, bw) when bw > !w || (bw = !w && bc <= caller) -> ()
          | _ -> Hashtbl.replace best callee (caller, !w))
      g.edges;
    best

  (* The name-keyed LBR reader: calls are branches landing at offset 0
     of another function. *)
  let of_profile ~(funcs : (string * int) list) (prof : Bolt_profile.Fdata.t) : t =
    let g = create () in
    List.iter (fun (name, size) -> add_node g ~name ~size) funcs;
    let events = Bolt_profile.Fdata.func_events prof in
    Hashtbl.iter (fun name c -> add_samples g name (Bolt_profile.Fdata.clamp_int c)) events;
    List.iter
      (fun (b : Bolt_profile.Fdata.branch) ->
        if b.br_from_func <> b.br_to_func && b.br_to_off = 0 then
          add_edge g b.br_from_func b.br_to_func (Bolt_profile.Fdata.clamp_int b.br_count))
      prof.branches;
    g

  (* §5.3 fallback: no LBR.  [direct_calls] lists the binary's static call
     sites as (caller, offset-in-caller, callee); each edge gets the IP
     samples recorded near the call site (same function, any offset —
     approximated by the caller's sample count scaled per site). *)
  let of_samples_and_calls ~(funcs : (string * int) list)
      ~(direct_calls : (string * int * string) list) (prof : Bolt_profile.Fdata.t) : t =
    let g = create () in
    List.iter (fun (name, size) -> add_node g ~name ~size) funcs;
    let events = Bolt_profile.Fdata.func_events prof in
    Hashtbl.iter (fun name c -> add_samples g name (Bolt_profile.Fdata.clamp_int c)) events;
    (* samples per (func, off) for call-site weighting *)
    let site_w = Hashtbl.create 1024 in
    List.iter
      (fun (s : Bolt_profile.Fdata.sample) ->
        Hashtbl.replace site_w (s.sm_func, s.sm_off)
          (sat_add
             (Bolt_profile.Fdata.clamp_int s.sm_count)
             (try Hashtbl.find site_w (s.sm_func, s.sm_off) with Not_found -> 0)))
      prof.samples;
    List.iter
      (fun (caller, off, callee) ->
        (* weight: samples within a small window after the call site *)
        let w = ref 0 in
        for o = off to off + 16 do
          match Hashtbl.find_opt site_w (caller, o) with
          | Some c -> w := sat_add !w c
          | None -> ()
        done;
        add_edge g caller callee (max 1 !w))
      direct_calls;
    g
end

module Order = struct
  type algo = Bolt_hfsort.Order.algo = C3 | Hfsort_plus | Pettis_hansen

  let page_budget = 4096
  let merge_density_ratio = 8 (* callee may be at most 8x colder per byte *)

  (* The call graph projected onto node ids (name order). *)
  type proj = { cfg : Cfg.t; names : string array; id : (string, int) Hashtbl.t }

  let project (g : Callgraph.t) : proj =
    let names =
      Hashtbl.fold (fun name _ acc -> name :: acc) g.Callgraph.nodes []
      |> List.sort compare |> Array.of_list
    in
    let id = Hashtbl.create (Array.length names * 2 + 1) in
    Array.iteri (fun i n -> Hashtbl.replace id n i) names;
    let nodes =
      Array.map
        (fun name ->
          let n = Hashtbl.find g.Callgraph.nodes name in
          { Cfg.n_label = name; n_size = n.Callgraph.n_size; n_count = n.n_samples })
        names
    in
    let edges =
      Hashtbl.fold
        (fun (a, b) r acc ->
          match (Hashtbl.find_opt id a, Hashtbl.find_opt id b) with
          | Some ia, Some ib -> (ia, ib, !r) :: acc
          | _ -> acc)
        g.Callgraph.edges []
    in
    { cfg = Cfg.make ~nodes edges; names; id }

  let density pool c =
    let s = Chain.size pool c in
    if s = 0 then 0.0 else float_of_int (Chain.weight pool c) /. float_of_int s

  (* Hot clusters (weight > 0) by density desc, chain id asc, flattened to
     function names.  Cold functions never join a hot chain (every merge
     guard requires weight > 0 on both sides), so they are left for the
     caller's original-order fallback. *)
  let cluster_order proj pool =
    Chain.live_chains pool
    |> List.filter (fun c -> Chain.weight pool c > 0)
    |> List.sort (fun a b ->
           let da = density pool a and db = density pool b in
           if da <> db then compare db da else compare a b)
    |> List.concat_map (fun c ->
           Array.to_list (Chain.blocks pool c)
           |> List.map (fun i -> proj.names.(i)))

  (* Hot node ids, samples desc then name asc (id order = name order). *)
  let hot_ids proj =
    let ids = ref [] in
    for i = Array.length proj.names - 1 downto 0 do
      if Cfg.count proj.cfg i > 0 then ids := i :: !ids
    done;
    List.sort
      (fun a b ->
        let ca = Cfg.count proj.cfg a and cb = Cfg.count proj.cfg b in
        if ca <> cb then compare cb ca else compare a b)
      !ids

  let c3_merges (g : Callgraph.t) proj pool =
    let best_caller = Callgraph.hottest_caller g in
    List.iter
      (fun i ->
        match Hashtbl.find_opt best_caller proj.names.(i) with
        | None -> ()
        | Some (caller, _w) -> (
            match Hashtbl.find_opt proj.id caller with
            | None -> ()
            | Some ci ->
                let cc = Chain.chain_of pool ci and cf = Chain.chain_of pool i in
                if cc <> cf && Chain.weight pool cc > 0 then begin
                  let merged_size = Chain.size pool cc + Chain.size pool cf in
                  if
                    merged_size <= page_budget
                    && density pool cf *. float_of_int merge_density_ratio
                       >= density pool cc
                  then Chain.append pool ~into:cc cf
                end))
      (hot_ids proj)

  let c3 (g : Callgraph.t) =
    let proj = project g in
    let pool = Chain.create proj.cfg in
    c3_merges g proj pool;
    cluster_order proj pool

  (* hfsort+ style refinement: keep merging cluster pairs with the highest
     inter-cluster call weight, while the merge still fits a small
     multiple of the page budget; the denser cluster leads. *)
  let hfsort_plus (g : Callgraph.t) =
    let proj = project g in
    let pool = Chain.create proj.cfg in
    c3_merges g proj pool;
    (* snapshot the c3 clusters: cluster index per node, plus one
       representative node per cluster to find its current chain later *)
    let clusters =
      Chain.live_chains pool |> List.filter (fun c -> Chain.weight pool c > 0)
    in
    let rep = Array.of_list (List.map (Chain.head pool) clusters) in
    let cl = Array.make (Array.length proj.names) (-1) in
    List.iteri
      (fun i c -> Array.iter (fun b -> cl.(b) <- i) (Chain.blocks pool c))
      clusters;
    (* inter-cluster weights *)
    let w = Hashtbl.create 1024 in
    Array.iter
      (fun (ia, ib, weight) ->
        let ca = cl.(ia) and cb = cl.(ib) in
        if ca >= 0 && cb >= 0 && ca <> cb then begin
          let key = (min ca cb, max ca cb) in
          Hashtbl.replace w key
            (Bolt_profile.Fdata.sat_add_int weight
               (try Hashtbl.find w key with Not_found -> 0))
        end)
      proj.cfg.Cfg.edges;
    let candidates =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) w []
      |> List.sort (fun (k1, a) (k2, b) ->
             if a <> b then compare b a else compare k1 k2)
    in
    List.iter
      (fun ((ia, ib), _) ->
        let ra = Chain.chain_of pool rep.(ia)
        and rb = Chain.chain_of pool rep.(ib) in
        if ra <> rb && Chain.size pool ra + Chain.size pool rb <= 4 * page_budget
        then begin
          let hi, lo =
            if density pool ra >= density pool rb then (ra, rb) else (rb, ra)
          in
          Chain.append pool ~into:hi lo
        end)
      candidates;
    cluster_order proj pool

  (* Classic Pettis-Hansen function ordering: merge the clusters joined by
     the globally heaviest remaining edge (ties broken by endpoint names
     via the edge array's total order). *)
  let pettis_hansen (g : Callgraph.t) =
    let proj = project g in
    let pool = Chain.create proj.cfg in
    Array.iter
      (fun (ia, ib, _) ->
        let ca = Chain.chain_of pool ia and cb = Chain.chain_of pool ib in
        if
          ca <> cb && Chain.weight pool ca > 0 && Chain.weight pool cb > 0
        then Chain.append pool ~into:ca cb)
      proj.cfg.Cfg.edges;
    cluster_order proj pool

  (* Full ordering: hot functions by the chosen algorithm, then everything
     else in original order. *)
  let order algo (g : Callgraph.t) ~(original : string list) : string list =
    let hot =
      match algo with
      | C3 -> c3 g
      | Hfsort_plus -> hfsort_plus g
      | Pettis_hansen -> pettis_hansen g
    in
    let placed = Hashtbl.create 256 in
    List.iter (fun f -> Hashtbl.replace placed f ()) hot;
    hot @ List.filter (fun f -> not (Hashtbl.mem placed f)) original
end
