// Package amqp is the client library for the ds2hpc broker, mirroring the
// API surface of the amqp091-go RabbitMQ client the paper's simulator uses:
// Dial/Channel, Queue/Exchange declaration, Publish with confirms, Consume
// with QoS, and delivery acknowledgements.
package amqp

import (
	"errors"

	"ds2hpc/internal/wire"
)

// Table re-exports the wire field table for client arguments.
type Table = wire.Table

// ErrClosed is returned by operations on a closed connection or channel.
var ErrClosed = errors.New("amqp: connection/channel closed")

// Queue describes a declared queue.
type Queue struct {
	Name      string
	Messages  int
	Consumers int
}

// Publishing is an outgoing message.
type Publishing struct {
	ContentType     string
	ContentEncoding string
	Headers         Table
	DeliveryMode    uint8
	Priority        uint8
	CorrelationID   string
	ReplyTo         string
	Expiration      string
	MessageID       string
	Timestamp       uint64 // UnixNano
	Type            string
	UserID          string
	AppID           string
	// Body is read while Publish runs and never after it returns, so the
	// caller may reuse the slice at once: from 64 KiB up it is borrowed and
	// flushed synchronously, below that copied into the connection's send
	// buffer. Publish returning nil therefore means accepted by the
	// connection — written, or queued behind at most 64 KiB for the flush
	// already scheduled — never delivered (see Channel.Publish). The one
	// exception to reuse is a confirm-mode channel of a reconnecting
	// connection (Config.Reconnect): the publish is kept for replay with
	// this same slice, so there the body must stay unmodified until its
	// confirm arrives.
	Body []byte
}

func (p *Publishing) properties() wire.Properties {
	return wire.Properties{
		ContentType:     p.ContentType,
		ContentEncoding: p.ContentEncoding,
		Headers:         p.Headers,
		DeliveryMode:    p.DeliveryMode,
		Priority:        p.Priority,
		CorrelationID:   p.CorrelationID,
		ReplyTo:         p.ReplyTo,
		Expiration:      p.Expiration,
		MessageID:       p.MessageID,
		Timestamp:       p.Timestamp,
		Type:            p.Type,
		UserID:          p.UserID,
		AppID:           p.AppID,
	}
}

// Delivery is an incoming message handed to consumers.
type Delivery struct {
	Acknowledger Acknowledger

	ConsumerTag string
	DeliveryTag uint64
	Redelivered bool
	Exchange    string
	RoutingKey  string

	ContentType     string
	ContentEncoding string
	Headers         Table
	DeliveryMode    uint8
	Priority        uint8
	CorrelationID   string
	ReplyTo         string
	Expiration      string
	MessageID       string
	Timestamp       uint64
	Type            string
	AppID           string

	Body []byte

	// MessageCount is set for basic.get responses.
	MessageCount uint32
}

// Acknowledger resolves deliveries. Each delivery carries the one of the
// transport epoch it arrived on, which drops the resolution once that
// transport is gone (the broker requeues its deliveries); *Channel's own
// Ack, Nack and Reject act on the current transport.
type Acknowledger interface {
	Ack(tag uint64, multiple bool) error
	Nack(tag uint64, multiple, requeue bool) error
	Reject(tag uint64, requeue bool) error
}

// Ack acknowledges this delivery (and all earlier ones when multiple).
func (d *Delivery) Ack(multiple bool) error {
	if d.Acknowledger == nil {
		return ErrClosed
	}
	return d.Acknowledger.Ack(d.DeliveryTag, multiple)
}

// Nack negatively acknowledges this delivery.
func (d *Delivery) Nack(multiple, requeue bool) error {
	if d.Acknowledger == nil {
		return ErrClosed
	}
	return d.Acknowledger.Nack(d.DeliveryTag, multiple, requeue)
}

// Reject rejects this delivery.
func (d *Delivery) Reject(requeue bool) error {
	if d.Acknowledger == nil {
		return ErrClosed
	}
	return d.Acknowledger.Reject(d.DeliveryTag, requeue)
}

func deliveryFromProps(p *wire.Properties) Delivery {
	return Delivery{
		ContentType:     p.ContentType,
		ContentEncoding: p.ContentEncoding,
		Headers:         p.Headers,
		DeliveryMode:    p.DeliveryMode,
		Priority:        p.Priority,
		CorrelationID:   p.CorrelationID,
		ReplyTo:         p.ReplyTo,
		Expiration:      p.Expiration,
		MessageID:       p.MessageID,
		Timestamp:       p.Timestamp,
		Type:            p.Type,
		AppID:           p.AppID,
	}
}

// Confirmation reports the broker's decision for one published message when
// the channel is in confirm mode.
type Confirmation struct {
	DeliveryTag uint64
	Ack         bool
}

// Return is an unroutable mandatory message bounced back to the publisher.
type Return struct {
	ReplyCode  uint16
	ReplyText  string
	Exchange   string
	RoutingKey string
	Body       []byte
}
