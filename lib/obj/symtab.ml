(* The function-address index: which function symbol owns an address.

   Identical code folding, the linker's or BOLT's own, leaves several
   function symbols at one address.  Discovery, call resolution, the
   rewriter, profile conversion, fingerprinting and the simulator's
   unwinder must all name the same owner there, so they all ask this one
   table:

   - it holds every function symbol with a nonzero size, sorted by
     (start, name); a zero-size symbol owns no byte and is left out;
   - [at a] is the first of them that starts at [a];
   - [covering a] is the first whose [start, start + size) holds [a], so
     an alias, nested or overlapping symbol never hides an earlier one
     in that order;
   - [find name] is the first of them with that name. *)

open Types

type t = {
  syms : symbol array; (* by (start, name) *)
  reach : int array; (* [reach.(k)]: the furthest end among [syms.(0..k)] *)
  by_name : (string, symbol) Hashtbl.t Lazy.t;
      (* built by the first [find]; only the rewriter's sequential symbol
         pass asks by name, so no two domains force it at once *)
}

let create (symbols : symbol list) : t =
  let syms =
    List.filter (fun s -> s.sym_kind = Func && s.sym_size > 0) symbols
    |> List.sort (fun a b ->
           match Int.compare a.sym_value b.sym_value with
           | 0 -> String.compare a.sym_name b.sym_name
           | c -> c)
    |> Array.of_list
  in
  let m = ref min_int in
  let reach =
    Array.map
      (fun s ->
        m := max !m (s.sym_value + s.sym_size);
        !m)
      syms
  in
  let by_name =
    lazy
      (let tbl = Hashtbl.create (Array.length syms) in
       Array.iter
         (fun s -> if not (Hashtbl.mem tbl s.sym_name) then Hashtbl.add tbl s.sym_name s)
         syms;
       tbl)
  in
  { syms; reach; by_name }

(* The first index where the monotone predicate [p] holds, or the
   length when it never does. *)
let first t p =
  let lo = ref 0 and hi = ref (Array.length t.syms) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p mid then hi := mid else lo := mid + 1
  done;
  !lo

let at t a =
  let k = first t (fun k -> t.syms.(k).sym_value >= a) in
  if k < Array.length t.syms && t.syms.(k).sym_value = a then Some t.syms.(k)
  else None

(* The first [k] whose reach passes [a] is the first symbol ending past
   [a]; it covers [a] if it starts at or below it, and no symbol does
   otherwise. *)
let covering t a =
  let k = first t (fun k -> t.reach.(k) > a) in
  if k < Array.length t.syms && t.syms.(k).sym_value <= a then Some t.syms.(k)
  else None

let find t name = Hashtbl.find_opt (Lazy.force t.by_name) name
