(* The profile as match-profile read it, kept on the context for the
   passes that read the profile after it.

   [Match_profile.attach] makes the one pass over the records, and looks
   each record's functions up once, as function ids.  Everything later
   passes need from the records lands here, in tables indexed by
   function id: ICP reads the call sites of the functions that hold an
   indirect call, and reorder-functions builds its call graph from the
   event totals and call weights.  The view holds tables
   proportional to the functions and the distinct calls, never a copy of
   the records. *)

module Int_tbl = Bolt_layout.Cfg.Int_tbl

type t = {
  totals : int array;
      (* per function id: the counts of its records (branches from it, its
         ranges, its samples), summed saturating at [max_int] — what
         [Fdata.func_events] sums, clamped to an int *)
  calls : int ref Int_tbl.t;
      (* call weight per (caller, callee), keyed [caller * n + callee]:
         the sum of the positive counts of the records between them,
         saturating at [max_int] *)
  sites : Bolt_profile.Fdata.branch list array;
      (* per caller: its call records, newest first *)
}

(* An empty view over [n] functions. *)
let create n =
  { totals = Array.make n 0; calls = Int_tbl.create 1024; sites = Array.make n [] }

(* Count [c] (non-negative) of a record of function [i]. *)
let add_events v i c = v.totals.(i) <- Bolt_profile.Fdata.sat_add_int v.totals.(i) c

(* A call record [b] from function [caller] into [callee] (-1 when the
   callee is not a function of the binary), with its count [c]. *)
let add_call v ~caller ~callee (b : Bolt_profile.Fdata.branch) c =
  v.sites.(caller) <- b :: v.sites.(caller);
  if callee >= 0 && c > 0 then begin
    let key = (caller * Array.length v.totals) + callee in
    match Int_tbl.find v.calls key with
    | w -> w := Bolt_profile.Fdata.sat_add_int !w c
    | exception Not_found -> Int_tbl.add v.calls key (ref c)
  end

(* Every call weight, (caller, callee, weight), in no particular order:
   the call graph sorts its edges. *)
let calls v =
  let n = Array.length v.totals in
  Int_tbl.fold (fun key w acc -> (key / n, key mod n, !w) :: acc) v.calls []
