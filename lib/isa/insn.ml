(* BISA instructions.

   The instruction set is deliberately x86-flavoured where it matters to a
   post-link optimizer:

   - variable-length encodings, so code layout changes code size;
   - conditional branches come in a 2-byte form (8-bit displacement) and a
     6-byte form (32-bit displacement), reproducing the x86 peculiarity the
     BOLT paper calls out when discussing hot-code growth;
   - [repz ret] exists as a distinct 2-byte return (legacy-AMD idiom) so the
     strip-rep-ret pass has something to strip;
   - multi-byte alignment NOPs (1..15 bytes);
   - calls through memory ([call_mem]) model PLT/GOT indirection;
   - register-indirect jumps serve both jump tables and indirect tail calls.

   Branch and memory operands are symbolic ([Sym]) until the assembler or
   the rewriter resolves them; decoded instructions always carry [Imm].
   Relative displacements are measured from the END of the instruction, as
   on x86. *)

type value = Imm of int | Sym of string * int

(* Displacement width of a branch encoding. *)
type width = W8 | W32

(* Immediate width of a register load. *)
type iwidth = I32 | I64

type alu = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr | Cmp | Test

type t =
  | Halt
  | Nop of int (* total encoded size in bytes, 1..15 *)
  | Ret
  | Repz_ret
  | Push of Reg.t
  | Pop of Reg.t
  | Mov_rr of Reg.t * Reg.t (* dst, src *)
  | Mov_ri of Reg.t * value * iwidth
  | Load of Reg.t * Reg.t * int (* dst <- mem[base + disp] *)
  | Store of Reg.t * int * Reg.t (* mem[base + disp] <- src *)
  | Load_abs of Reg.t * value (* dst <- mem[addr32] *)
  | Store_abs of value * Reg.t (* mem[addr32] <- src *)
  | Lea of Reg.t * value (* dst <- addr32 *)
  | Lea_rel of Reg.t * value (* dst <- end-of-insn address + disp32 (PIC) *)
  | Alu_rr of alu * Reg.t * Reg.t (* op dst, src *)
  | Alu_ri of alu * Reg.t * value (* op dst, imm32 *)
  | Setcc of Cond.t * Reg.t (* reg := last comparison satisfies cond ? 1 : 0 *)
  | Jmp of value * width
  | Jcc of Cond.t * value * width
  | Call of value
  | Call_ind of Reg.t
  | Call_mem of value (* call through mem cell, i.e. a GOT slot *)
  | Jmp_ind of Reg.t
  | Jmp_mem of value (* jump through mem cell: the body of a PLT stub *)
  | In_ of Reg.t (* read next value of the input tape, 0 at EOF *)
  | Out of Reg.t (* append register to the output tape *)
  | Throw (* raise an exception; the simulator unwinds frames *)

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Cmp -> "cmp"
  | Test -> "test"

let alu_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | And -> 4
  | Or -> 5
  | Xor -> 6
  | Shl -> 7
  | Shr -> 8
  | Cmp -> 9
  | Test -> 10
  | Mod -> 11

let alu_of_code = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | 4 -> And
  | 5 -> Or
  | 6 -> Xor
  | 7 -> Shl
  | 8 -> Shr
  | 9 -> Cmp
  | 10 -> Test
  | 11 -> Mod
  | n -> invalid_arg (Printf.sprintf "Insn.alu_of_code %d" n)

(* Encoded size in bytes.  This is the ground truth the assembler, the
   rewriter and the simulator all share. *)
let size = function
  | Halt -> 1
  | Nop n -> n
  | Ret -> 1
  | Repz_ret -> 2
  | Push _ | Pop _ -> 2
  | Mov_rr _ -> 2
  | Mov_ri (_, _, I32) -> 6
  | Mov_ri (_, _, I64) -> 10
  | Load _ | Store _ -> 6
  | Load_abs _ | Store_abs _ -> 6
  | Lea _ | Lea_rel _ -> 6
  | Alu_rr _ -> 2
  | Alu_ri _ -> 6
  | Setcc _ -> 2
  | Jmp (_, W8) -> 2
  | Jmp (_, W32) -> 5
  | Jcc (_, _, W8) -> 2
  | Jcc (_, _, W32) -> 6
  | Call _ -> 5
  | Call_ind _ -> 2
  | Call_mem _ -> 6
  | Jmp_ind _ -> 2
  | Jmp_mem _ -> 6
  | In_ _ | Out _ -> 2
  | Throw -> 1

(* Control-flow classification, used when reconstructing CFGs. *)

type cf =
  | CF_none
  | CF_jump (* unconditional direct jump *)
  | CF_cond (* conditional direct branch *)
  | CF_call
  | CF_icall (* indirect or through-memory call *)
  | CF_ijump (* indirect jump: jump table or indirect tail call *)
  | CF_ret
  | CF_halt
  | CF_throw

let classify = function
  | Jmp _ -> CF_jump
  | Jcc _ -> CF_cond
  | Call _ -> CF_call
  | Call_ind _ | Call_mem _ -> CF_icall
  | Jmp_ind _ | Jmp_mem _ -> CF_ijump
  | Ret | Repz_ret -> CF_ret
  | Halt -> CF_halt
  | Throw -> CF_throw
  | _ -> CF_none

(* An instruction after which control never falls through. *)
let is_terminator i =
  match classify i with
  | CF_jump | CF_ijump | CF_ret | CF_halt | CF_throw -> true
  | CF_none | CF_cond | CF_call | CF_icall -> false

let is_call i = match classify i with CF_call | CF_icall -> true | _ -> false

(* Symbolic/direct target of a branch or call, if any. *)
let target = function
  | Jmp (v, _) | Jcc (_, v, _) | Call v -> Some v
  | _ -> None

(* Replace the (unique) symbolic operand of an instruction. *)
let with_value i v =
  match i with
  | Jmp (_, w) -> Jmp (v, w)
  | Jcc (c, _, w) -> Jcc (c, v, w)
  | Call _ -> Call v
  | Lea_rel (r, _) -> Lea_rel (r, v)
  | Mov_ri (r, _, iw) -> Mov_ri (r, v, iw)
  | Load_abs (r, _) -> Load_abs (r, v)
  | Store_abs (_, s) -> Store_abs (v, s)
  | Lea (r, _) -> Lea (r, v)
  | Call_mem _ -> Call_mem v
  | Jmp_mem _ -> Jmp_mem v
  | Alu_ri (op, r, _) -> Alu_ri (op, r, v)
  | _ -> invalid_arg "Insn.with_value"

(* The symbolic/immediate operand, if the instruction has one. *)
let value = function
  | Jmp (v, _) | Jcc (_, v, _) | Call v | Lea_rel (_, v) -> Some v
  | Mov_ri (_, v, _) | Load_abs (_, v) | Store_abs (v, _) | Lea (_, v) -> Some v
  | Call_mem v | Jmp_mem v | Alu_ri (_, _, v) -> Some v
  | _ -> None

(* Registers written by an instruction.  Calls additionally clobber all
   caller-saved registers; dataflow clients handle that case themselves. *)
let defs = function
  | Mov_rr (r, _)
  | Mov_ri (r, _, _)
  | Load (r, _, _)
  | Load_abs (r, _)
  | Lea (r, _)
  | Lea_rel (r, _)
  | In_ r ->
      [ r ]
  | Alu_rr (op, r, _) | Alu_ri (op, r, _) -> (
      match op with Cmp | Test -> [] | _ -> [ r ])
  | Setcc (_, r) -> [ r ]
  | Push _ -> [ Reg.sp ]
  | Pop r -> [ r; Reg.sp ]
  | _ -> []

(* Registers read by an instruction. *)
let uses = function
  | Push r -> [ r; Reg.sp ]
  | Pop _ -> [ Reg.sp ]
  | Mov_rr (_, s) -> [ s ]
  | Load (_, b, _) -> [ b ]
  | Store (b, _, s) -> [ b; s ]
  | Store_abs (_, s) -> [ s ]
  | Alu_rr (op, d, s) -> ( match op with Cmp | Test -> [ d; s ] | _ -> [ d; s ])
  | Alu_ri (_, d, _) -> [ d ]
  | Call_ind r | Jmp_ind r -> [ r ]
  | Out r -> [ r ]
  | Ret | Repz_ret -> [ Reg.sp ]
  | Call _ | Call_mem _ -> Reg.args
  | _ -> []

let pp_value ppf = function
  | Imm n -> Fmt.pf ppf "%#x" n
  | Sym (s, 0) -> Fmt.string ppf s
  | Sym (s, a) -> Fmt.pf ppf "%s%+d" s a

let pp ppf i =
  match i with
  | Halt -> Fmt.string ppf "halt"
  | Nop 1 -> Fmt.string ppf "nop"
  | Nop n -> Fmt.pf ppf "nop%d" n
  | Ret -> Fmt.string ppf "ret"
  | Repz_ret -> Fmt.string ppf "repz ret"
  | Push r -> Fmt.pf ppf "push %a" Reg.pp r
  | Pop r -> Fmt.pf ppf "pop %a" Reg.pp r
  | Mov_rr (d, s) -> Fmt.pf ppf "mov %a, %a" Reg.pp d Reg.pp s
  | Mov_ri (d, v, I32) -> Fmt.pf ppf "mov %a, %a" Reg.pp d pp_value v
  | Mov_ri (d, v, I64) -> Fmt.pf ppf "movabs %a, %a" Reg.pp d pp_value v
  | Load (d, b, o) -> Fmt.pf ppf "mov %a, [%a%+d]" Reg.pp d Reg.pp b o
  | Store (b, o, s) -> Fmt.pf ppf "mov [%a%+d], %a" Reg.pp b o Reg.pp s
  | Load_abs (d, v) -> Fmt.pf ppf "mov %a, [%a]" Reg.pp d pp_value v
  | Store_abs (v, s) -> Fmt.pf ppf "mov [%a], %a" pp_value v Reg.pp s
  | Lea (d, v) -> Fmt.pf ppf "lea %a, %a" Reg.pp d pp_value v
  | Lea_rel (d, v) -> Fmt.pf ppf "lea %a, [rip%a]" Reg.pp d pp_value v
  | Alu_rr (op, d, s) ->
      Fmt.pf ppf "%s %a, %a" (alu_name op) Reg.pp d Reg.pp s
  | Alu_ri (op, d, v) ->
      Fmt.pf ppf "%s %a, %a" (alu_name op) Reg.pp d pp_value v
  | Setcc (c, r) -> Fmt.pf ppf "set%s %a" (Cond.name c) Reg.pp r
  | Jmp (v, W8) -> Fmt.pf ppf "jmp.8 %a" pp_value v
  | Jmp (v, W32) -> Fmt.pf ppf "jmp %a" pp_value v
  | Jcc (c, v, W8) -> Fmt.pf ppf "j%s.8 %a" (Cond.name c) pp_value v
  | Jcc (c, v, W32) -> Fmt.pf ppf "j%s %a" (Cond.name c) pp_value v
  | Call v -> Fmt.pf ppf "call %a" pp_value v
  | Call_ind r -> Fmt.pf ppf "call *%a" Reg.pp r
  | Call_mem v -> Fmt.pf ppf "call [%a]" pp_value v
  | Jmp_ind r -> Fmt.pf ppf "jmp *%a" Reg.pp r
  | Jmp_mem v -> Fmt.pf ppf "jmp [%a]" pp_value v
  | In_ r -> Fmt.pf ppf "in %a" Reg.pp r
  | Out r -> Fmt.pf ppf "out %a" Reg.pp r
  | Throw -> Fmt.string ppf "throw"

let to_string i = Fmt.str "%a" pp i

let equal (a : t) (b : t) = a = b
