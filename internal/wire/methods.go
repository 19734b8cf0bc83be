package wire

// Class identifiers, following the AMQP 0-9-1 numbering that RabbitMQ uses.
const (
	ClassConnection uint16 = 10
	ClassChannel    uint16 = 20
	ClassExchange   uint16 = 40
	ClassQueue      uint16 = 50
	ClassBasic      uint16 = 60
	ClassConfirm    uint16 = 85
)

// Reply codes used in connection.close / channel.close and basic.return.
const (
	ReplySuccess            uint16 = 200
	ReplyRedirect           uint16 = 302
	ReplyContentTooLarge    uint16 = 311
	ReplyNoRoute            uint16 = 312
	ReplyNoConsumers        uint16 = 313
	ReplyAccessRefused      uint16 = 403
	ReplyNotFound           uint16 = 404
	ReplyResourceLocked     uint16 = 405
	ReplyPreconditionFailed uint16 = 406
	ReplyFrameError         uint16 = 501
	ReplySyntaxError        uint16 = 502
	ReplyCommandInvalid     uint16 = 503
	ReplyChannelError       uint16 = 504
	ReplyResourceError      uint16 = 506
	ReplyNotAllowed         uint16 = 530
	ReplyNotImplemented     uint16 = 540
	ReplyInternalError      uint16 = 541
)

// Method is a protocol method carried in a method frame.
type Method interface {
	// ID returns the class and method identifiers.
	ID() (classID, methodID uint16)
	// Marshal appends the method arguments (after class/method ids).
	Marshal(w *Writer)
	// Unmarshal parses the method arguments.
	Unmarshal(r *Reader)
}

// EncodeMethod serializes m into a method-frame payload.
func EncodeMethod(m Method) ([]byte, error) {
	w := NewWriter()
	c, id := m.ID()
	w.Short(c)
	w.Short(id)
	m.Marshal(w)
	return w.Bytes(), w.Err()
}

// ParseMethod decodes a method-frame payload into a freshly allocated
// Method the caller keeps. It is the Decoder with no slots, for cold paths
// and tests; frame readers decode through their own Decoder.
func ParseMethod(payload []byte) (Method, error) {
	var d Decoder
	return d.Method(payload, nil)
}

func newMethod(classID, methodID uint16) Method {
	switch classID {
	case ClassConnection:
		switch methodID {
		case 10:
			return &ConnectionStart{}
		case 11:
			return &ConnectionStartOk{}
		case 30:
			return &ConnectionTune{}
		case 31:
			return &ConnectionTuneOk{}
		case 40:
			return &ConnectionOpen{}
		case 41:
			return &ConnectionOpenOk{}
		case 50:
			return &ConnectionClose{}
		case 51:
			return &ConnectionCloseOk{}
		}
	case ClassChannel:
		switch methodID {
		case 10:
			return &ChannelOpen{}
		case 11:
			return &ChannelOpenOk{}
		case 20:
			return &ChannelFlow{}
		case 21:
			return &ChannelFlowOk{}
		case 40:
			return &ChannelClose{}
		case 41:
			return &ChannelCloseOk{}
		}
	case ClassExchange:
		switch methodID {
		case 10:
			return &ExchangeDeclare{}
		case 11:
			return &ExchangeDeclareOk{}
		case 20:
			return &ExchangeDelete{}
		case 21:
			return &ExchangeDeleteOk{}
		}
	case ClassQueue:
		switch methodID {
		case 10:
			return &QueueDeclare{}
		case 11:
			return &QueueDeclareOk{}
		case 20:
			return &QueueBind{}
		case 21:
			return &QueueBindOk{}
		case 30:
			return &QueuePurge{}
		case 31:
			return &QueuePurgeOk{}
		case 40:
			return &QueueDelete{}
		case 41:
			return &QueueDeleteOk{}
		case 50:
			return &QueueUnbind{}
		case 51:
			return &QueueUnbindOk{}
		}
	case ClassBasic:
		switch methodID {
		case 10:
			return &BasicQos{}
		case 11:
			return &BasicQosOk{}
		case 20:
			return &BasicConsume{}
		case 21:
			return &BasicConsumeOk{}
		case 30:
			return &BasicCancel{}
		case 31:
			return &BasicCancelOk{}
		case 40:
			return &BasicPublish{}
		case 50:
			return &BasicReturn{}
		case 60:
			return &BasicDeliver{}
		case 70:
			return &BasicGet{}
		case 71:
			return &BasicGetOk{}
		case 72:
			return &BasicGetEmpty{}
		case 80:
			return &BasicAck{}
		case 90:
			return &BasicReject{}
		case 120:
			return &BasicNack{}
		}
	case ClassConfirm:
		switch methodID {
		case 10:
			return &ConfirmSelect{}
		case 11:
			return &ConfirmSelectOk{}
		}
	}
	return nil
}

// ---------------------------------------------------------------- connection

// ConnectionStart opens protocol negotiation (server → client).
type ConnectionStart struct {
	VersionMajor     byte
	VersionMinor     byte
	ServerProperties Table
	Mechanisms       string
	Locales          string
}

func (m *ConnectionStart) ID() (uint16, uint16) { return ClassConnection, 10 }
func (m *ConnectionStart) Marshal(w *Writer) {
	w.Octet(m.VersionMajor)
	w.Octet(m.VersionMinor)
	w.WriteTable(m.ServerProperties)
	w.LongStr([]byte(m.Mechanisms))
	w.LongStr([]byte(m.Locales))
}
func (m *ConnectionStart) Unmarshal(r *Reader) {
	m.VersionMajor = r.Octet()
	m.VersionMinor = r.Octet()
	m.ServerProperties = r.ReadTable()
	m.Mechanisms = string(r.LongStr())
	m.Locales = string(r.LongStr())
}

// ConnectionStartOk answers negotiation (client → server).
type ConnectionStartOk struct {
	ClientProperties Table
	Mechanism        string
	Response         []byte
	Locale           string
}

func (m *ConnectionStartOk) ID() (uint16, uint16) { return ClassConnection, 11 }
func (m *ConnectionStartOk) Marshal(w *Writer) {
	w.WriteTable(m.ClientProperties)
	w.ShortStr(m.Mechanism)
	w.LongStr(m.Response)
	w.ShortStr(m.Locale)
}
func (m *ConnectionStartOk) Unmarshal(r *Reader) {
	m.ClientProperties = r.ReadTable()
	m.Mechanism = r.ShortStr()
	m.Response = append([]byte(nil), r.LongStr()...)
	m.Locale = r.ShortStr()
}

// ConnectionTune proposes connection limits (server → client).
type ConnectionTune struct {
	ChannelMax uint16
	FrameMax   uint32
	Heartbeat  uint16
}

func (m *ConnectionTune) ID() (uint16, uint16) { return ClassConnection, 30 }
func (m *ConnectionTune) Marshal(w *Writer) {
	w.Short(m.ChannelMax)
	w.Long(m.FrameMax)
	w.Short(m.Heartbeat)
}
func (m *ConnectionTune) Unmarshal(r *Reader) {
	m.ChannelMax = r.Short()
	m.FrameMax = r.Long()
	m.Heartbeat = r.Short()
}

// ConnectionTuneOk accepts connection limits (client → server).
type ConnectionTuneOk struct {
	ChannelMax uint16
	FrameMax   uint32
	Heartbeat  uint16
}

func (m *ConnectionTuneOk) ID() (uint16, uint16) { return ClassConnection, 31 }
func (m *ConnectionTuneOk) Marshal(w *Writer) {
	w.Short(m.ChannelMax)
	w.Long(m.FrameMax)
	w.Short(m.Heartbeat)
}
func (m *ConnectionTuneOk) Unmarshal(r *Reader) {
	m.ChannelMax = r.Short()
	m.FrameMax = r.Long()
	m.Heartbeat = r.Short()
}

// ConnectionOpen selects a virtual host.
type ConnectionOpen struct {
	VirtualHost string
}

func (m *ConnectionOpen) ID() (uint16, uint16) { return ClassConnection, 40 }
func (m *ConnectionOpen) Marshal(w *Writer) {
	w.ShortStr(m.VirtualHost)
	w.ShortStr("") // reserved
	w.Bool(false)  // reserved
}
func (m *ConnectionOpen) Unmarshal(r *Reader) {
	m.VirtualHost = r.ShortStr()
	r.ShortStr()
	r.Bool()
}

// ConnectionOpenOk confirms virtual host selection.
type ConnectionOpenOk struct{}

func (m *ConnectionOpenOk) ID() (uint16, uint16) { return ClassConnection, 41 }
func (m *ConnectionOpenOk) Marshal(w *Writer)    { w.ShortStr("") }
func (m *ConnectionOpenOk) Unmarshal(r *Reader)  { r.ShortStr() }

// ConnectionClose initiates orderly shutdown.
type ConnectionClose struct {
	ReplyCode uint16
	ReplyText string
	ClassID   uint16
	MethodID  uint16
}

func (m *ConnectionClose) ID() (uint16, uint16) { return ClassConnection, 50 }
func (m *ConnectionClose) Marshal(w *Writer) {
	w.Short(m.ReplyCode)
	w.ShortStr(m.ReplyText)
	w.Short(m.ClassID)
	w.Short(m.MethodID)
}
func (m *ConnectionClose) Unmarshal(r *Reader) {
	m.ReplyCode = r.Short()
	m.ReplyText = r.ShortStr()
	m.ClassID = r.Short()
	m.MethodID = r.Short()
}

// ConnectionCloseOk confirms shutdown.
type ConnectionCloseOk struct{}

func (m *ConnectionCloseOk) ID() (uint16, uint16) { return ClassConnection, 51 }
func (m *ConnectionCloseOk) Marshal(*Writer)      {}
func (m *ConnectionCloseOk) Unmarshal(*Reader)    {}

// ------------------------------------------------------------------- channel

// ChannelOpen opens a channel.
type ChannelOpen struct{}

func (m *ChannelOpen) ID() (uint16, uint16) { return ClassChannel, 10 }
func (m *ChannelOpen) Marshal(w *Writer)    { w.ShortStr("") }
func (m *ChannelOpen) Unmarshal(r *Reader)  { r.ShortStr() }

// ChannelOpenOk confirms channel open.
type ChannelOpenOk struct{}

func (m *ChannelOpenOk) ID() (uint16, uint16) { return ClassChannel, 11 }
func (m *ChannelOpenOk) Marshal(w *Writer)    { w.LongStr(nil) }
func (m *ChannelOpenOk) Unmarshal(r *Reader)  { r.LongStr() }

// ChannelFlow pauses or resumes delivery on a channel.
type ChannelFlow struct{ Active bool }

func (m *ChannelFlow) ID() (uint16, uint16) { return ClassChannel, 20 }
func (m *ChannelFlow) Marshal(w *Writer)    { w.Bool(m.Active) }
func (m *ChannelFlow) Unmarshal(r *Reader)  { m.Active = r.Bool() }

// ChannelFlowOk confirms a flow change.
type ChannelFlowOk struct{ Active bool }

func (m *ChannelFlowOk) ID() (uint16, uint16) { return ClassChannel, 21 }
func (m *ChannelFlowOk) Marshal(w *Writer)    { w.Bool(m.Active) }
func (m *ChannelFlowOk) Unmarshal(r *Reader)  { m.Active = r.Bool() }

// ChannelClose closes a channel with a reason.
type ChannelClose struct {
	ReplyCode uint16
	ReplyText string
	ClassID   uint16
	MethodID  uint16
}

func (m *ChannelClose) ID() (uint16, uint16) { return ClassChannel, 40 }
func (m *ChannelClose) Marshal(w *Writer) {
	w.Short(m.ReplyCode)
	w.ShortStr(m.ReplyText)
	w.Short(m.ClassID)
	w.Short(m.MethodID)
}
func (m *ChannelClose) Unmarshal(r *Reader) {
	m.ReplyCode = r.Short()
	m.ReplyText = r.ShortStr()
	m.ClassID = r.Short()
	m.MethodID = r.Short()
}

// ChannelCloseOk confirms channel close.
type ChannelCloseOk struct{}

func (m *ChannelCloseOk) ID() (uint16, uint16) { return ClassChannel, 41 }
func (m *ChannelCloseOk) Marshal(*Writer)      {}
func (m *ChannelCloseOk) Unmarshal(*Reader)    {}

// ------------------------------------------------------------------ exchange

// ExchangeDeclare creates an exchange.
type ExchangeDeclare struct {
	Exchange   string
	Type       string
	Passive    bool
	Durable    bool
	AutoDelete bool
	Internal   bool
	NoWait     bool
	Arguments  Table
}

func (m *ExchangeDeclare) ID() (uint16, uint16) { return ClassExchange, 10 }
func (m *ExchangeDeclare) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.Type)
	w.Bool(m.Passive)
	w.Bool(m.Durable)
	w.Bool(m.AutoDelete)
	w.Bool(m.Internal)
	w.Bool(m.NoWait)
	w.WriteTable(m.Arguments)
}
func (m *ExchangeDeclare) Unmarshal(r *Reader) {
	r.Short()
	m.Exchange = r.ShortStr()
	m.Type = r.ShortStr()
	m.Passive = r.Bool()
	m.Durable = r.Bool()
	m.AutoDelete = r.Bool()
	m.Internal = r.Bool()
	m.NoWait = r.Bool()
	m.Arguments = r.ReadTable()
}

// ExchangeDeclareOk confirms exchange declaration.
type ExchangeDeclareOk struct{}

func (m *ExchangeDeclareOk) ID() (uint16, uint16) { return ClassExchange, 11 }
func (m *ExchangeDeclareOk) Marshal(*Writer)      {}
func (m *ExchangeDeclareOk) Unmarshal(*Reader)    {}

// ExchangeDelete removes an exchange.
type ExchangeDelete struct {
	Exchange string
	IfUnused bool
	NoWait   bool
}

func (m *ExchangeDelete) ID() (uint16, uint16) { return ClassExchange, 20 }
func (m *ExchangeDelete) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Exchange)
	w.Bool(m.IfUnused)
	w.Bool(m.NoWait)
}
func (m *ExchangeDelete) Unmarshal(r *Reader) {
	r.Short()
	m.Exchange = r.ShortStr()
	m.IfUnused = r.Bool()
	m.NoWait = r.Bool()
}

// ExchangeDeleteOk confirms exchange deletion.
type ExchangeDeleteOk struct{}

func (m *ExchangeDeleteOk) ID() (uint16, uint16) { return ClassExchange, 21 }
func (m *ExchangeDeleteOk) Marshal(*Writer)      {}
func (m *ExchangeDeleteOk) Unmarshal(*Reader)    {}

// --------------------------------------------------------------------- queue

// QueueDeclare creates a queue.
type QueueDeclare struct {
	Queue      string
	Passive    bool
	Durable    bool
	Exclusive  bool
	AutoDelete bool
	NoWait     bool
	Arguments  Table
}

func (m *QueueDeclare) ID() (uint16, uint16) { return ClassQueue, 10 }
func (m *QueueDeclare) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.Bool(m.Passive)
	w.Bool(m.Durable)
	w.Bool(m.Exclusive)
	w.Bool(m.AutoDelete)
	w.Bool(m.NoWait)
	w.WriteTable(m.Arguments)
}
func (m *QueueDeclare) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.Passive = r.Bool()
	m.Durable = r.Bool()
	m.Exclusive = r.Bool()
	m.AutoDelete = r.Bool()
	m.NoWait = r.Bool()
	m.Arguments = r.ReadTable()
}

// QueueDeclareOk reports the declared queue and its counters.
type QueueDeclareOk struct {
	Queue         string
	MessageCount  uint32
	ConsumerCount uint32
}

func (m *QueueDeclareOk) ID() (uint16, uint16) { return ClassQueue, 11 }
func (m *QueueDeclareOk) Marshal(w *Writer) {
	w.ShortStr(m.Queue)
	w.Long(m.MessageCount)
	w.Long(m.ConsumerCount)
}
func (m *QueueDeclareOk) Unmarshal(r *Reader) {
	m.Queue = r.ShortStr()
	m.MessageCount = r.Long()
	m.ConsumerCount = r.Long()
}

// QueueBind binds a queue to an exchange.
type QueueBind struct {
	Queue      string
	Exchange   string
	RoutingKey string
	NoWait     bool
	Arguments  Table
}

func (m *QueueBind) ID() (uint16, uint16) { return ClassQueue, 20 }
func (m *QueueBind) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.RoutingKey)
	w.Bool(m.NoWait)
	w.WriteTable(m.Arguments)
}
func (m *QueueBind) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.Exchange = r.ShortStr()
	m.RoutingKey = r.ShortStr()
	m.NoWait = r.Bool()
	m.Arguments = r.ReadTable()
}

// QueueBindOk confirms a binding.
type QueueBindOk struct{}

func (m *QueueBindOk) ID() (uint16, uint16) { return ClassQueue, 21 }
func (m *QueueBindOk) Marshal(*Writer)      {}
func (m *QueueBindOk) Unmarshal(*Reader)    {}

// QueueUnbind removes a binding.
type QueueUnbind struct {
	Queue      string
	Exchange   string
	RoutingKey string
	Arguments  Table
}

func (m *QueueUnbind) ID() (uint16, uint16) { return ClassQueue, 50 }
func (m *QueueUnbind) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.RoutingKey)
	w.WriteTable(m.Arguments)
}
func (m *QueueUnbind) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.Exchange = r.ShortStr()
	m.RoutingKey = r.ShortStr()
	m.Arguments = r.ReadTable()
}

// QueueUnbindOk confirms unbinding.
type QueueUnbindOk struct{}

func (m *QueueUnbindOk) ID() (uint16, uint16) { return ClassQueue, 51 }
func (m *QueueUnbindOk) Marshal(*Writer)      {}
func (m *QueueUnbindOk) Unmarshal(*Reader)    {}

// QueuePurge drops all ready messages from a queue.
type QueuePurge struct {
	Queue  string
	NoWait bool
}

func (m *QueuePurge) ID() (uint16, uint16) { return ClassQueue, 30 }
func (m *QueuePurge) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.Bool(m.NoWait)
}
func (m *QueuePurge) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.NoWait = r.Bool()
}

// QueuePurgeOk reports how many messages were purged.
type QueuePurgeOk struct{ MessageCount uint32 }

func (m *QueuePurgeOk) ID() (uint16, uint16) { return ClassQueue, 31 }
func (m *QueuePurgeOk) Marshal(w *Writer)    { w.Long(m.MessageCount) }
func (m *QueuePurgeOk) Unmarshal(r *Reader)  { m.MessageCount = r.Long() }

// QueueDelete removes a queue.
type QueueDelete struct {
	Queue    string
	IfUnused bool
	IfEmpty  bool
	NoWait   bool
}

func (m *QueueDelete) ID() (uint16, uint16) { return ClassQueue, 40 }
func (m *QueueDelete) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.Bool(m.IfUnused)
	w.Bool(m.IfEmpty)
	w.Bool(m.NoWait)
}
func (m *QueueDelete) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.IfUnused = r.Bool()
	m.IfEmpty = r.Bool()
	m.NoWait = r.Bool()
}

// QueueDeleteOk reports how many messages were dropped with the queue.
type QueueDeleteOk struct{ MessageCount uint32 }

func (m *QueueDeleteOk) ID() (uint16, uint16) { return ClassQueue, 41 }
func (m *QueueDeleteOk) Marshal(w *Writer)    { w.Long(m.MessageCount) }
func (m *QueueDeleteOk) Unmarshal(r *Reader)  { m.MessageCount = r.Long() }

// --------------------------------------------------------------------- basic

// BasicQos sets the prefetch window for a channel (or connection if Global).
type BasicQos struct {
	PrefetchSize  uint32
	PrefetchCount uint16
	Global        bool
}

func (m *BasicQos) ID() (uint16, uint16) { return ClassBasic, 10 }
func (m *BasicQos) Marshal(w *Writer) {
	w.Long(m.PrefetchSize)
	w.Short(m.PrefetchCount)
	w.Bool(m.Global)
}
func (m *BasicQos) Unmarshal(r *Reader) {
	m.PrefetchSize = r.Long()
	m.PrefetchCount = r.Short()
	m.Global = r.Bool()
}

// BasicQosOk confirms a QoS change.
type BasicQosOk struct{}

func (m *BasicQosOk) ID() (uint16, uint16) { return ClassBasic, 11 }
func (m *BasicQosOk) Marshal(*Writer)      {}
func (m *BasicQosOk) Unmarshal(*Reader)    {}

// BasicConsume starts a consumer on a queue.
type BasicConsume struct {
	Queue       string
	ConsumerTag string
	NoLocal     bool
	NoAck       bool
	Exclusive   bool
	NoWait      bool
	Arguments   Table
}

func (m *BasicConsume) ID() (uint16, uint16) { return ClassBasic, 20 }
func (m *BasicConsume) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.ShortStr(m.ConsumerTag)
	w.Bool(m.NoLocal)
	w.Bool(m.NoAck)
	w.Bool(m.Exclusive)
	w.Bool(m.NoWait)
	w.WriteTable(m.Arguments)
}
func (m *BasicConsume) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.ConsumerTag = r.ShortStr()
	m.NoLocal = r.Bool()
	m.NoAck = r.Bool()
	m.Exclusive = r.Bool()
	m.NoWait = r.Bool()
	m.Arguments = r.ReadTable()
}

// BasicConsumeOk confirms consumer registration.
type BasicConsumeOk struct{ ConsumerTag string }

func (m *BasicConsumeOk) ID() (uint16, uint16) { return ClassBasic, 21 }
func (m *BasicConsumeOk) Marshal(w *Writer)    { w.ShortStr(m.ConsumerTag) }
func (m *BasicConsumeOk) Unmarshal(r *Reader)  { m.ConsumerTag = r.ShortStr() }

// BasicCancel stops a consumer.
type BasicCancel struct {
	ConsumerTag string
	NoWait      bool
}

func (m *BasicCancel) ID() (uint16, uint16) { return ClassBasic, 30 }
func (m *BasicCancel) Marshal(w *Writer) {
	w.ShortStr(m.ConsumerTag)
	w.Bool(m.NoWait)
}
func (m *BasicCancel) Unmarshal(r *Reader) {
	m.ConsumerTag = r.ShortStr()
	m.NoWait = r.Bool()
}

// BasicCancelOk confirms consumer cancellation.
type BasicCancelOk struct{ ConsumerTag string }

func (m *BasicCancelOk) ID() (uint16, uint16) { return ClassBasic, 31 }
func (m *BasicCancelOk) Marshal(w *Writer)    { w.ShortStr(m.ConsumerTag) }
func (m *BasicCancelOk) Unmarshal(r *Reader)  { m.ConsumerTag = r.ShortStr() }

// BasicPublish carries a message to an exchange; followed by header+body.
type BasicPublish struct {
	Exchange   string
	RoutingKey string
	Mandatory  bool
	Immediate  bool
}

func (m *BasicPublish) ID() (uint16, uint16) { return ClassBasic, 40 }
func (m *BasicPublish) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.RoutingKey)
	w.Bool(m.Mandatory)
	w.Bool(m.Immediate)
}
func (m *BasicPublish) Unmarshal(r *Reader) {
	r.Short()
	r.shortStrInto(&m.Exchange)
	r.shortStrInto(&m.RoutingKey)
	m.Mandatory = r.Bool()
	m.Immediate = r.Bool()
}

// BasicReturn bounces an unroutable mandatory message back to the publisher.
type BasicReturn struct {
	ReplyCode  uint16
	ReplyText  string
	Exchange   string
	RoutingKey string
}

func (m *BasicReturn) ID() (uint16, uint16) { return ClassBasic, 50 }
func (m *BasicReturn) Marshal(w *Writer) {
	w.Short(m.ReplyCode)
	w.ShortStr(m.ReplyText)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.RoutingKey)
}
func (m *BasicReturn) Unmarshal(r *Reader) {
	m.ReplyCode = r.Short()
	m.ReplyText = r.ShortStr()
	m.Exchange = r.ShortStr()
	m.RoutingKey = r.ShortStr()
}

// BasicDeliver pushes a message to a consumer; followed by header+body.
type BasicDeliver struct {
	ConsumerTag string
	DeliveryTag uint64
	Redelivered bool
	Exchange    string
	RoutingKey  string
}

func (m *BasicDeliver) ID() (uint16, uint16) { return ClassBasic, 60 }
func (m *BasicDeliver) Marshal(w *Writer) {
	w.ShortStr(m.ConsumerTag)
	w.LongLong(m.DeliveryTag)
	w.Bool(m.Redelivered)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.RoutingKey)
}
func (m *BasicDeliver) Unmarshal(r *Reader) {
	r.shortStrInto(&m.ConsumerTag)
	m.DeliveryTag = r.LongLong()
	m.Redelivered = r.Bool()
	r.shortStrInto(&m.Exchange)
	r.shortStrInto(&m.RoutingKey)
}

// BasicGet synchronously fetches one message.
type BasicGet struct {
	Queue string
	NoAck bool
}

func (m *BasicGet) ID() (uint16, uint16) { return ClassBasic, 70 }
func (m *BasicGet) Marshal(w *Writer) {
	w.Short(0)
	w.ShortStr(m.Queue)
	w.Bool(m.NoAck)
}
func (m *BasicGet) Unmarshal(r *Reader) {
	r.Short()
	m.Queue = r.ShortStr()
	m.NoAck = r.Bool()
}

// BasicGetOk returns a message for BasicGet; followed by header+body.
type BasicGetOk struct {
	DeliveryTag  uint64
	Redelivered  bool
	Exchange     string
	RoutingKey   string
	MessageCount uint32
}

func (m *BasicGetOk) ID() (uint16, uint16) { return ClassBasic, 71 }
func (m *BasicGetOk) Marshal(w *Writer) {
	w.LongLong(m.DeliveryTag)
	w.Bool(m.Redelivered)
	w.ShortStr(m.Exchange)
	w.ShortStr(m.RoutingKey)
	w.Long(m.MessageCount)
}
func (m *BasicGetOk) Unmarshal(r *Reader) {
	m.DeliveryTag = r.LongLong()
	m.Redelivered = r.Bool()
	m.Exchange = r.ShortStr()
	m.RoutingKey = r.ShortStr()
	m.MessageCount = r.Long()
}

// BasicGetEmpty reports that the queue had no messages.
type BasicGetEmpty struct{}

func (m *BasicGetEmpty) ID() (uint16, uint16) { return ClassBasic, 72 }
func (m *BasicGetEmpty) Marshal(w *Writer)    { w.ShortStr("") }
func (m *BasicGetEmpty) Unmarshal(r *Reader)  { r.ShortStr() }

// BasicAck acknowledges one or more deliveries.
type BasicAck struct {
	DeliveryTag uint64
	Multiple    bool
}

func (m *BasicAck) ID() (uint16, uint16) { return ClassBasic, 80 }
func (m *BasicAck) Marshal(w *Writer) {
	w.LongLong(m.DeliveryTag)
	w.Bool(m.Multiple)
}
func (m *BasicAck) Unmarshal(r *Reader) {
	m.DeliveryTag = r.LongLong()
	m.Multiple = r.Bool()
}

// BasicReject rejects a single delivery.
type BasicReject struct {
	DeliveryTag uint64
	Requeue     bool
}

func (m *BasicReject) ID() (uint16, uint16) { return ClassBasic, 90 }
func (m *BasicReject) Marshal(w *Writer) {
	w.LongLong(m.DeliveryTag)
	w.Bool(m.Requeue)
}
func (m *BasicReject) Unmarshal(r *Reader) {
	m.DeliveryTag = r.LongLong()
	m.Requeue = r.Bool()
}

// BasicNack negatively acknowledges one or more deliveries.
type BasicNack struct {
	DeliveryTag uint64
	Multiple    bool
	Requeue     bool
}

func (m *BasicNack) ID() (uint16, uint16) { return ClassBasic, 120 }
func (m *BasicNack) Marshal(w *Writer) {
	w.LongLong(m.DeliveryTag)
	w.Bool(m.Multiple)
	w.Bool(m.Requeue)
}
func (m *BasicNack) Unmarshal(r *Reader) {
	m.DeliveryTag = r.LongLong()
	m.Multiple = r.Bool()
	m.Requeue = r.Bool()
}

// ------------------------------------------------------------------- confirm

// ConfirmSelect puts the channel into publisher-confirm mode.
type ConfirmSelect struct{ NoWait bool }

func (m *ConfirmSelect) ID() (uint16, uint16) { return ClassConfirm, 10 }
func (m *ConfirmSelect) Marshal(w *Writer)    { w.Bool(m.NoWait) }
func (m *ConfirmSelect) Unmarshal(r *Reader)  { m.NoWait = r.Bool() }

// ConfirmSelectOk confirms confirm mode.
type ConfirmSelectOk struct{}

func (m *ConfirmSelectOk) ID() (uint16, uint16) { return ClassConfirm, 11 }
func (m *ConfirmSelectOk) Marshal(*Writer)      {}
func (m *ConfirmSelectOk) Unmarshal(*Reader)    {}
